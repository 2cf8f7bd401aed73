"""End-to-end tests of the command-line surface and its JSON contracts."""

import copy
import functools
import gc
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
import sympy
from hypothesis import HealthCheck, given, settings, strategies as st

from toraldyn import (characters, cli, cohomology, exact_algebra,
                      group_structure, hodge_riemann, integer_model)
from toraldyn.cli import (EXIT_INVALID, EXIT_OK, EXIT_VIOLATION, MAX_DIGITS,
                          MAX_ENUMERATE_DIM, MAX_SAMPLES, _approx_str,
                          build_analysis_report, load_group_argument, main,
                          run)
from toraldyn.integer_model import _CATALOG, catalog_group

from oracles import sympy_matrix

ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = ROOT / "src"


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _json_of(stdout):
    return json.loads(stdout)


def _src_env():
    """The environment of a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env


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


def test_analyze_infinite_u_relation_lattice(capsys):
    # (P, P^5) with P = [[1, 1], [0, 1]]: U is infinite and its relations
    # are the multiples of (5, -1), which has an exponent beyond 4
    path = ROOT / "tests" / "data" / "parabolic_pow5_T2.json"
    code, out, _ = _run(capsys, "analyze", str(path))
    assert code == EXIT_OK
    dec = _json_of(out)["decomposition"]
    assert dec["u_finite"] is False
    assert dec["relation_lattice"]["basis"] == [["5", "-1"]]


def test_analyze_close_real_moduli(capsys):
    # the companion of x^3 - a^2 x^2 + 2a x - 1, a = 10^9: two real roots lie
    # within about a^-2.5 of 1/a, so matching each root to its modulus takes
    # enclosures narrower than about 1e-13 of the moduli
    path = ROOT / "tests" / "data" / "close_moduli_T3.json"
    code, out, err = _run(capsys, "analyze", str(path))
    assert code == EXIT_OK, err[-2000:]
    rep = _json_of(out)
    assert rep["rank"] == "1"
    lo, hi = (Fraction(v) for v in
              rep["generators"][0]["entropy"]["interval"])
    a = 10**9
    with mpmath.workdps(50):
        top = max(abs(r) for r in mpmath.polyroots(
            [1, -a * a, 2 * a, -1], maxsteps=200, extraprec=200))
        entropy = 2 * mpmath.log(top)
        assert (mpmath.mpf(lo.numerator) / lo.denominator <= entropy
                <= mpmath.mpf(hi.numerator) / hi.denominator)


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


def test_structure_violation_exits_2_with_no_report(monkeypatch, capsys):
    # every check of assert_structure_theorems raises on a violation, so no
    # report can carry a failed status: the report's statuses are constants
    def violation(spec, analysis):
        raise AssertionError("THEOREM VIOLATION: rank 2 exceeds k-1 = 1")

    monkeypatch.setattr(group_structure, "assert_structure_theorems",
                        violation)
    code, out, err = _run(capsys, "analyze", "cat_T2")
    assert code == EXIT_VIOLATION and out == ""
    assert "THEOREM VIOLATION" in err


def test_analyze_unknown_name_exits_3(capsys):
    code, _, err = _run(capsys, "analyze", "not_a_builtin")
    assert code == EXIT_INVALID and "builtin" in err
    assert err.endswith("(builtins: cat_T2, cubic_T3, parabolic_T2, pell_T2, "
                        "pell_plus_torsion, torsion_i)\n")


@pytest.mark.parametrize("argv", [
    ["frobnicate"],
    ["analyze"],
    ["enumerate", "--dim", "x", "--bound", "1"],
], ids=["unknown_command", "missing_spec", "non_integer_dim"])
def test_usage_error_exits_3(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INVALID
    assert "usage: toraldyn" in capsys.readouterr().err


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


# the byte contract: each row of tests/contract.json is a request, the file
# holding its committed stdout, whether it is too slow for tier-1 (ci_only;
# CI runs every row) and whether it must load neither sympy nor mpmath.  The
# rows are the perfbench goldens; positive-entropy requests that no golden
# covers (a Gaussian generator with a non-real trace, diag(C, C) alone and
# with diag(C, C^-1), two Pell powers with the torsion i, three draws of
# random-spectra seed 41, and the forges of the quartic, Q(sqrt 2), the
# golden field and the cubic at bound 2, which pin the units the forge
# selects); zero-entropy specs whose every decision is an integer one (four
# draws of random-spectra seed 41, diag(i, 1, ..., 1), ..., diag(1, ..., 1,
# i) at k = 6 and 7, and (P, P^5)); the seed-7 Hodge-Riemann reports; and, in
# CI only, forges whose --bound is a ceiling: a larger bound prints the same
# units
CONTRACT = json.loads((ROOT / "tests" / "contract.json").read_text())
# a fresh interpreter per row, as users run it: the printed interval of a
# bare CRootOf depends on how far sympy's process-wide root cache was refined
# by earlier computations in the same process.  h11_matrix refuses before any
# other package module is imported, so every later `from .integer_model
# import h11_matrix` binds the refusal: the zero-entropy test, the
# classification and the printed H^{1,1} charpoly are all read from the
# k x k charpoly.  The loaded sympy* and mpmath* modules go to the file named
# by the first argument
_ROW_DRIVER = """
import json, sys
from toraldyn import integer_model

def refuse(f):
    raise AssertionError("h11_matrix was called")

integer_model.h11_matrix = refuse
from toraldyn.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as out:
    json.dump(sorted(m for m in sys.modules
                     if m.split(".")[0] in ("sympy", "mpmath")), out)
sys.exit(code)
"""


TIER1_ROWS = {tuple(row["argv"]): row
              for row in CONTRACT if not row["ci_only"]}


@functools.cache
def _row_run(argv):
    """(exit code, stdout, stderr, loaded numeric modules) of the tier-1 row
    of this request, run once per session in a fresh interpreter."""
    assert argv in TIER1_ROWS, f"no tier-1 contract row runs {argv}"
    with tempfile.TemporaryDirectory() as tmp:
        loaded = Path(tmp) / "loaded.json"
        proc = subprocess.run(
            [sys.executable, "-c", _ROW_DRIVER, str(loaded), *argv],
            capture_output=True, cwd=ROOT, env=_src_env(), timeout=120)
        modules = json.loads(loaded.read_text()) if loaded.exists() else None
    return proc.returncode, proc.stdout, proc.stderr, modules


def _row_prints(argv, committed):
    """Assert the row of `argv` exits 0, silent on stderr, printing the
    committed file byte for byte; return the modules it loaded."""
    code, out, err, loaded = _row_run(tuple(argv))
    assert code == EXIT_OK, err.decode()[-2000:]
    assert err == b""
    assert out == (ROOT / committed).read_bytes()
    return loaded


@pytest.mark.parametrize("row", list(TIER1_ROWS.values()),
                         ids=lambda row: Path(row["stdout"]).stem)
def test_contract_row_prints_its_committed_stdout(row):
    loaded = _row_prints(row["argv"], row["stdout"])
    if row["numeric_free"]:
        assert loaded == []


# the tests the outputs were checked by before the table; each reads the one
# run of its row and asserts what it asserted then
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
    _row_prints(argv, f"perfbench/golden/{name}.json")


# the builtins named by the arguments are analyzed, their reports dropped,
# and then `enumerate --dim 2 --bound 2` prints, all in one interpreter
_WARM_DRIVER = """
import contextlib, io, sys
from toraldyn.cli import main
for name in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["analyze", name]) == 0, name
sys.exit(main(["enumerate", "--dim", "2", "--bound", "2"]))
"""


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: a printed interval records how far sympy's "
    "process-wide CRootOf cache was refined, so the same request prints "
    "other bytes in a warm process than in a cold one"))
def test_enumerate_prints_its_golden_after_the_builtins_in_one_process():
    proc = subprocess.run(
        [sys.executable, "-c", _WARM_DRIVER, *_CATALOG], capture_output=True,
        cwd=ROOT, env=_src_env(), timeout=120)
    if proc.returncode != EXIT_OK or proc.stderr:
        pytest.fail(proc.stderr.decode()[-2000:])
    assert proc.stdout == \
        (ROOT / "perfbench/golden/enumerate_2_2.json").read_bytes()


def _analyze_spec(name):
    return ["analyze", f"tests/data/{name}.json"]


@pytest.mark.parametrize("name,argv", [
    *(pytest.param(name, _analyze_spec(name), id=name) for name in (
        "sl2zi_nonreal_trace", "diag_cc_T6", "diag_cc_pair_T6",
        "pell2_pell3_i", "seed41_sl3_real_split_positive",
        "seed41_sl2zi_real_trace_positive", "seed41_sl3_nonreal_irreducible")),
    *(pytest.param(name, ["forge", "--poly", poly, "--bound", bound],
                   id=name) for name, poly, bound in (
        ("forge_quartic", "1,-1,-3,1,1", "2"),
        ("forge_sqrt2", "1,0,-2", "3"),
        ("forge_golden", "1,-1,-1", "2"),
        ("forge_cubic_bound2", "1,-1,-2,1", "2"))),
])
def test_spec_report_matches_its_committed_stdout(name, argv):
    _row_prints(argv, f"tests/data/{name}_report.json")


@pytest.mark.parametrize("argv,expected", [
    *(pytest.param(["analyze", name], f"perfbench/golden/{name}.json", id=name)
      for name in sorted(_CATALOG)),
    pytest.param(_analyze_spec("pell2_pell3_i"),
                 "tests/data/pell2_pell3_i_report.json", id="pell2_pell3_i"),
    pytest.param(["forge", "--poly", "1,-1,-3,1,1", "--bound", "2"],
                 "tests/data/forge_quartic_report.json", id="forge_quartic"),
])
def test_no_request_builds_the_h11_matrix(argv, expected):
    # every row runs with h11_matrix refusing
    _row_prints(argv, expected)


# zero-entropy specs of random-spectra seed 41, cycle 0, and the k = 6 and
# k = 7 members of the family diag(i, 1, ..., 1), ..., diag(1, ..., 1, i)
ZERO_ENTROPY_SPECS = ("seed41_sl3_parabolic", "seed41_sl3_nonreal_split",
                      "seed41_sl2zi_finite_gaussian", "seed41_pair_zero",
                      "diag_i_T6", "diag_i_T7")


@pytest.mark.parametrize("name", ZERO_ENTROPY_SPECS)
def test_zero_entropy_report_matches_its_committed_stdout(name):
    _row_prints(_analyze_spec(name), f"tests/data/{name}_report.json")


@pytest.mark.parametrize("target", [
    *(f"tests/data/{name}.json" for name in ZERO_ENTROPY_SPECS),
    "tests/data/parabolic_pow5_T2.json", "parabolic_T2", "torsion_i"])
def test_zero_entropy_analyze_loads_no_sympy(target):
    # every decision of a zero-entropy family is an integer one
    code, _, err, loaded = _row_run(("analyze", target))
    assert code == EXIT_OK, err.decode()[-2000:]
    assert not [m for m in loaded if m.split(".")[0] == "sympy"]


def test_zero_entropy_analyze_loads_neither_sympy_nor_mpmath():
    # the approximations 1 and 0 of a zero-entropy report are printed on
    # integers too
    assert _row_prints(_analyze_spec("seed41_pair_zero"),
                       "tests/data/seed41_pair_zero_report.json") == []


def _hodge_check_seed_7(k):
    return ["hodge-check", "--dim", str(k), "--samples", "1000", "--seed", "7"]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_hodge_check_matches_its_seed_7_report(k):
    _row_prints(_hodge_check_seed_7(k),
                f"tests/data/hodge_check_k{k}_seed7.json")


@pytest.mark.parametrize("k", [2, 3, 4])
def test_hodge_check_loads_no_sympy(k):
    code, _, err, loaded = _row_run(tuple(_hodge_check_seed_7(k)))
    assert code == EXIT_OK, err.decode()[-2000:]
    assert loaded == []


# every committed CLI output: the perfbench goldens, the reports of the
# tests/data specs and forges, and the seed-7 Hodge-Riemann reports
COMMITTED_OUTPUTS = ("perfbench/golden/*.json", "tests/data/*_report.json",
                     "tests/data/hodge_check_k*_seed7.json")


def test_every_committed_output_is_the_stdout_of_a_contract_row():
    named = {row["stdout"] for row in CONTRACT}
    committed = {path.relative_to(ROOT).as_posix()
                 for pattern in COMMITTED_OUTPUTS
                 for path in ROOT.glob(pattern)}
    assert sorted(committed - named) == []
    # and every file a row names exists: its stdout and any spec it analyzes
    files = named | {arg for row in CONTRACT for arg in row["argv"]
                     if arg.endswith(".json")}
    assert sorted(f for f in files if not (ROOT / f).is_file()) == []


def test_forged_from_is_read_from_the_committed_report():
    # every forge row, the ci_only ones included, from its committed stdout
    # alone: min_poly is the parsed --poly, each unit is column 0 of its
    # generator's matrix (M e_0 = M(1)), which is real, and the
    # certificate's log-rank is the printed rank of pi
    forges = [row for row in CONTRACT if row["argv"][0] == "forge"]
    assert any(row["ci_only"] for row in forges)
    for row in forges:
        argv = row["argv"]
        report = json.loads((ROOT / row["stdout"]).read_text())["report"]
        forged = report["forged_from"]
        poly = argv[argv.index("--poly") + 1].split(",")
        assert forged["min_poly"] == [str(int(c)) for c in poly], argv
        columns = [[entry[0] for entry in g["matrix"]]
                   for g in report["generators"]]
        assert forged["units"] == [[re for re, _ in col] for col in columns]
        assert {im for col in columns for _, im in col} == {"0"}, argv
        assert forged["independence_certificate"].startswith(
            f"log-rank {report['rank']} at "), argv


def test_reader_closing_stdout_early_gets_an_exit_code():
    # the reader goes away before the report is written: the verdict still
    # comes as the exit code, and stderr holds no traceback
    proc = subprocess.Popen(
        [sys.executable, "-m", "toraldyn.cli", "analyze", "pell_T2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env())
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) in (EXIT_OK, EXIT_VIOLATION, EXIT_INVALID)
    assert "Traceback" not in err, err[-2000:]


def _exit_code_to_gone_readers(argv, stdout_gone):
    """The exit code of a cold CLI process whose stderr, and stdout when
    ``stdout_gone``, is a pipe whose reader closed it before the start."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "toraldyn.cli", *argv],
            stdout=write_end if stdout_gone else subprocess.DEVNULL,
            stderr=write_end, env=_src_env(), timeout=60)
    finally:
        os.close(write_end)
    return proc.returncode


@pytest.mark.parametrize("argv, stdout_gone, code", [
    (["analyze", "no_such_builtin"], False, EXIT_INVALID),
    (["hodge-check", "--dim", "7"], False, EXIT_INVALID),
    (["analyze", "pell_T2"], True, EXIT_OK),
], ids=["unknown_builtin", "hodge_check_dim_7", "pell_T2_both_gone"])
def test_reader_closing_stderr_keeps_the_exit_code(argv, stdout_gone, code):
    # a refusal's message to a closed stderr is lost, not turned into a
    # BrokenPipeError traceback that would exit 1
    assert _exit_code_to_gone_readers(argv, stdout_gone) == code


@pytest.fixture
def exit_codes(monkeypatch):
    """``run`` in-process: ``os._exit`` records its code instead of ending
    the process, and the GC that ``run`` turns off is turned back on."""
    codes = []
    monkeypatch.setattr(os, "_exit", codes.append)
    yield codes
    gc.enable()


def _raise(exc):
    def command(args):
        raise exc
    return command


@pytest.mark.parametrize("argv, command, code", [
    (["analyze", "pell_T2"], None, EXIT_OK),
    (["hodge-check", "--dim", "7"], None, EXIT_INVALID),
    (["analyze", "pell_T2"], _raise(AssertionError("THEOREM VIOLATION")),
     EXIT_VIOLATION),
], ids=["ok", "invalid", "violation"])
def test_run_exits_with_the_code_of_main(exit_codes, monkeypatch, capsys,
                                         argv, command, code):
    if command is not None:
        monkeypatch.setattr(cli, "cmd_analyze", command)
    run(argv)
    assert exit_codes == [code]
    assert not gc.isenabled()


def test_run_prints_what_main_prints(exit_codes, capsys, tmp_path):
    argv = ["analyze", "pell_plus_torsion"]
    assert main(argv) == EXIT_OK
    printed = capsys.readouterr()
    run(argv)
    assert capsys.readouterr() == printed
    out = tmp_path / "report.json"
    run([*argv, "--json", str(out)])
    assert exit_codes == [EXIT_OK, EXIT_OK]
    assert out.read_text() == printed.out


def test_unexpected_error_escapes_run(exit_codes, monkeypatch):
    monkeypatch.setattr(cli, "cmd_analyze", _raise(RuntimeError("boom")))
    with pytest.raises(RuntimeError, match="boom"):
        run(["analyze", "pell_T2"])
    assert exit_codes == []


def test_main_keeps_the_gc_on(capsys):
    assert main(["analyze", "cat_T2"]) == EXIT_OK
    assert gc.isenabled()


def test_reports_do_not_call_sympy_minimal_polynomial(monkeypatch, capsys):
    # every min_poly and every zero test of these reports is decided by the
    # integer kernel; sympy's minimal_polynomial refines sympy's root cache
    def refuse(*args, **kwargs):
        raise AssertionError("sympy.minimal_polynomial was called")

    monkeypatch.setattr(sympy, "minimal_polynomial", refuse)
    for argv in ([["analyze", name] for name in sorted(_CATALOG)]
                 + [["forge", "--poly", "1,-1,-2,1"],
                    ["forge", "--poly", "1,-1,-3,1,1", "--bound", "2"]]):
        code, out, err = _run(capsys, *argv)
        assert code == EXIT_OK, (argv, err[-2000:])
        assert _json_of(out)


@pytest.mark.parametrize("argv,calls", [
    (["analyze", "cubic_T3"], 3),
    (["analyze", "pell_plus_torsion"], 2),
    (["forge", "--poly", "1,-1,-3,1,1", "--bound", "2"], 7),
    (["enumerate", "--dim", "2", "--bound", "2"], 0),
], ids=["cubic_T3", "pell_plus_torsion", "forge_quartic", "enumerate_2_2"])
def test_exact_is_zero_only_decides_the_printed_d1(monkeypatch, capsys,
                                                    argv, calls):
    # the integer kernel decides every sign and equality of a request; the
    # one exact_is_zero left is the d1 check, whose numeric rung refines
    # the sympy interval that the report prints
    callers = {}
    real = exact_algebra.exact_is_zero

    def exact_is_zero(expr):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):   # comprehensions
            frame = frame.f_back
        name = frame.f_code.co_name
        callers[name] = callers.get(name, 0) + 1
        return real(expr)

    # cohomology and characters bind exact_is_zero at import; a call
    # through the exact_algebra module reads it there at call time
    for module in (exact_algebra, cohomology, characters):
        monkeypatch.setattr(module, "exact_is_zero", exact_is_zero)
    code, _, err = _run(capsys, *argv)
    assert code == EXIT_OK, err[-2000:]
    assert callers == ({"_validate_characters": calls} if calls else {})


def test_analysis_computes_each_artifact_once(monkeypatch):
    calls = {"find_characters": 0, "pi_rank": 0, "_kernel_split": 0}
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
        A = sympy_matrix(f)
        moduli[A] = moduli.get(A, 0) + 1
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
    # pell_plus_torsion has a nontrivial kernel of pi to split
    for name in ("cubic_T3", "pell_plus_torsion"):
        for tally in (calls, class_algebra):
            tally.update(dict.fromkeys(tally, 0))
        moduli.clear()
        cohomology._moduli_squared_desc.cache_clear()
        spec = catalog_group(name)
        analysis = group_structure.analyze_group(spec)
        build_analysis_report(analysis, 12, 0)
        assert calls == {"find_characters": 1, "pi_rank": 1,
                         "_kernel_split": 1}, name
        # a zero-entropy generator's degrees need no root moduli
        positive = [g for g in spec.generators
                    if cohomology.classify(g) == "positive_entropy"]
        assert sorted(moduli.values()) == [1] * len(positive), name
        assert class_algebra == {"wedge": 0, "is_nef": 0, "pullback": 0}, name


@pytest.mark.parametrize("name", ["parabolic_T2", "torsion_i"])
def test_zero_entropy_certificate_is_computed_once(monkeypatch, capsys, name):
    # the zero-entropy test, the classification and the printed H^{1,1}
    # charpoly all read the k x k charpoly of the generator, computed once;
    # no charpoly of a k^2 x k^2 matrix is taken
    calls = {}
    real = integer_model.gaussian_charpoly

    def gaussian_charpoly(M):
        key = tuple(map(tuple, M))
        calls[key] = calls.get(key, 0) + 1
        return real(M)

    monkeypatch.setattr(integer_model, "gaussian_charpoly", gaussian_charpoly)
    for fn in (integer_model.h11_charpoly, integer_model.has_zero_entropy,
               integer_model.classify):
        fn.cache_clear()
    code, _, _ = _run(capsys, "analyze", name)
    assert code == EXIT_OK
    assert calls == {g.pairs: 1 for g in catalog_group(name).generators}


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


_IDENTITY_ENUMERATION = """{
  "count": "1",
  "distinct_d1": [
    {
      "approx": "1.00000000000000",
      "approx_is_approximation": true,
      "interval": [
        "1/1",
        "1/1"
      ],
      "min_poly": [
        "1",
        "-1"
      ]
    }
  ],
  "entry_bound": "0",
  "gap_statement": "all automorphisms in the search box have zero entropy \
(d1 = 1)",
  "k": "%d",
  "kind": "degree_enumeration",
  "tool": "toraldyn 0.1.0"
}
"""


def test_enumerate_bound_0_is_the_identity_alone(capsys):
    # the box is the zero matrix, so the one d1 is the identity's, from the
    # closed form (x - 1)^k of its charpoly
    for k in range(1, 41):
        code, out, _ = _run(capsys, "enumerate", "--dim", str(k), "--bound",
                            "0")
        assert code == EXIT_OK and out == _IDENTITY_ENUMERATION % k, k


def test_enumerate_at_the_dim_cap_runs_cold_in_under_2s():
    argv = ["enumerate", "--dim", str(MAX_ENUMERATE_DIM), "--bound", "0"]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "toraldyn.cli", *argv],
                          capture_output=True, env=_src_env(), text=True,
                          timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == EXIT_OK, proc.stderr
    assert _json_of(proc.stdout)["k"] == str(MAX_ENUMERATE_DIM)
    assert elapsed < 2, f"ran in {elapsed:.2f}s"


# x^3001 - 2: a box this size is refused before the field is factored
DEGREE_3001_POLY = "1," + "0," * 3000 + "-2"


@pytest.mark.parametrize("argv", [
    ["forge", "--poly", "1,-1,-2,1", "--bound", "100"],
    ["enumerate", "--dim", "100", "--bound", "1"],
    ["forge", "--poly", DEGREE_3001_POLY, "--bound", "1"],
    None,
], ids=["forge_bound_100", "enumerate_dim_100", "forge_degree_3001",
        "spec_coeff_bound_1000"])
def test_box_over_budget_refused_cold_in_under_1s(tmp_path, argv):
    # the box is refused from bit lengths: a 4,772-digit point count is
    # never printed, and the degree-3001 field is never factored
    if argv is None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "number_field",
                                    "min_poly": ["1", "-1", "-2", "1"],
                                    "coeff_bound": 1000}))
        argv = ["analyze", str(path)]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "toraldyn.cli", *argv],
                          capture_output=True, env=_src_env(), text=True,
                          timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == EXIT_INVALID and "budget" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 1, f"refused in {elapsed:.2f}s"


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
    (None, ["hodge-check", "--dim", "2", "--samples", str(MAX_SAMPLES + 1)]),
    ({"kind": "torus_group", "complex_dim": "0",
      "generators": [{"matrix": []}]}, None),
    (None, ["analyze", "cat_T2", "--precision", "1001"]),
    (None, ["forge", "--poly", "1,-1,-2,1", "--precision", "1001"]),
    (None, ["enumerate", "--dim", "2", "--bound", "2", "--precision",
            "3000"]),
    (None, ["forge", "--poly", "1,-1,-2,1", "--bound", "100"]),
    ({"kind": "number_field", "min_poly": ["1", "-1", "-2", "1"],
      "coeff_bound": 1000}, None),
    # unreadable spec files, as raw bytes
    (b'\xff\xfe{"kind": "torus_group"}', None),
    (b'{"kind": "torus_group", "complex_dim": ' + b"1" * 4301 + b"}", None),
    (b"[" * 200_000 + b"]" * 200_000, None),
], ids=["list_spec", "string_generators", "non_object_generator",
        "string_coeff_bound", "enumerate_dim_0", "enumerate_dim_negative",
        "enumerate_bound_negative", "negative_precision",
        "negative_samples", "samples_over_cap", "empty_matrix",
        "analyze_precision_over_cap", "forge_precision_over_cap",
        "enumerate_precision_over_cap", "forge_box_over_budget",
        "spec_box_over_budget", "not_utf8_spec", "over_long_int_spec",
        "deeply_nested_spec"])
def test_invalid_input_exits_3(tmp_path, capsys, spec, argv):
    if argv is None:
        path = tmp_path / "spec.json"
        if isinstance(spec, bytes):
            path.write_bytes(spec)
        else:
            path.write_text(json.dumps(spec))
        argv = ["analyze", str(path)]
    code, _, err = _run(capsys, *argv)
    assert code == EXIT_INVALID
    assert err.startswith("invalid input:")
    if isinstance(spec, bytes):
        assert "cannot read spec file" in err


@pytest.mark.parametrize("min_poly", ["131", {"1": 0, "0": 0, "-2": 0}],
                         ids=["string", "object"])
def test_number_field_min_poly_must_be_a_list(tmp_path, capsys, min_poly):
    # iterated, the string reads as the digits of x^2 + 3x + 1 and the
    # object as its keys, x^2 - 2; each would forge
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "number_field", "min_poly": min_poly}))
    code, out, err = _run(capsys, "analyze", str(path))
    assert code == EXIT_INVALID and out == ""
    assert "malformed number_field spec" in err


def test_precision_cap_is_inclusive(capsys):
    code, out, _ = _run(capsys, "analyze", "cat_T2", "--precision",
                        str(MAX_DIGITS))
    assert code == EXIT_OK
    lo, hi = (Fraction(v) for v in
              _json_of(out)["generators"][0]["entropy"]["interval"])
    assert hi - lo <= Fraction(1, 10**MAX_DIGITS)


def test_samples_cap_is_inclusive(monkeypatch, capsys):
    # the cap is checked, not run: the fuzz sees the count and draws none;
    # cmd_hodge_check reads hodge_riemann.gromov_fuzz when it runs
    seen = []
    real = hodge_riemann.gromov_fuzz

    def fuzz(k, samples, seed):
        seen.append(samples)
        return real(k, 0, seed)

    monkeypatch.setattr(hodge_riemann, "gromov_fuzz", fuzz)
    code, _, _ = _run(capsys, "hodge-check", "--dim", "2", "--samples",
                      str(MAX_SAMPLES))
    assert code == EXIT_OK and seen == [MAX_SAMPLES]


@pytest.mark.parametrize("argv", [
    ["analyze", "cat_T2"],
    ["hodge-check", "--dim", "2", "--samples", "1"],
], ids=["analyze", "hodge_check"])
def test_unwritable_json_path_exits_3(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "report.json"
    code, stdout, err = _run(capsys, *argv, "--json", str(out))
    assert code == EXIT_INVALID and stdout == ""
    assert err.startswith(f"invalid input: cannot write report to {out}: ")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# start-up: a refusal loads neither sympy nor mpmath
# ---------------------------------------------------------------------------

def _modules_after(code, packages):
    """The modules of ``packages`` a fresh interpreter has loaded after
    running ``code``."""
    probe = code + ("\nimport sys\nprint(sorted(m for m in sys.modules"
                    f" if m.split('.')[0] in {packages!r}))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          env=_src_env(), text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.splitlines()[-1]


def _numeric_modules_after(code):
    """The sympy* and mpmath* modules loaded after running ``code``."""
    return _modules_after(code, ("sympy", "mpmath"))


def test_importing_the_cli_loads_no_sympy():
    assert _numeric_modules_after("import toraldyn.cli") == "[]"
    # nor any package module but the root, which holds ExactAlgebraError
    assert (_modules_after("import toraldyn.cli", ("toraldyn",))
            == "['toraldyn', 'toraldyn.cli']")


def test_definiteness_refuses_an_irrational_entry_before_any_import():
    code = ("from toraldyn import ExactAlgebraError\n"
            "from toraldyn.integer_model import symmetric_definiteness\n"
            "try:\n"
            "    symmetric_definiteness([[1.5]])\n"
            "except ExactAlgebraError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('1.5 was not refused')")
    assert (_modules_after(code, ("sympy", "mpmath", "toraldyn"))
            == "['toraldyn', 'toraldyn.integer_model']")


_CAT_ROWS = [[["2", "0"], ["1", "0"]], [["1", "0"], ["1", "0"]]]


@pytest.mark.parametrize("spec,argv", [
    ([], None),
    ({"kind": "torus_group", "complex_dim": 2, "generators": "ab"}, None),
    ({"kind": "torus_group", "complex_dim": 2, "generators": [1]}, None),
    ({"kind": "torus_group", "complex_dim": "0",
      "generators": [{"matrix": []}]}, None),
    ({"kind": "torus_group", "complex_dim": 2,
      "generators": [{"matrix": _CAT_ROWS}, {"matrix": _CAT_ROWS[:1]}]}, None),
    ({"kind": "torus_group", "complex_dim": 2,
      "generators": [{"matrix": _CAT_ROWS}, {"matrix": [
          [["2", "0"], ["1", "0"]], [["1", "0"], ["1.5", "0"]]]}]}, None),
    (None, ["hodge-check", "--dim", "7"]),
    (None, ["enumerate", "--dim", "0", "--bound", "2"]),
    (None, ["analyze", "cat_T2", "--precision", "-1"]),
    (None, ["analyze", "not_a_builtin"]),
    (None, ["forge", "--poly", "1,-1,-2,1", "--bound", "0"]),
    (None, ["forge", "--poly", "1,-1,-2,1", "--bound", "100"]),
    (None, ["enumerate", "--dim", "4", "--bound", "9"]),
    ({"kind": "number_field", "min_poly": ["1", "-1", "-2", "1"],
      "coeff_bound": 1000}, None),
    (None, ["enumerate", "--dim", str(MAX_ENUMERATE_DIM + 1), "--bound",
            "0"]),
], ids=["list_spec", "string_generators", "non_object_generator",
        "empty_matrix", "short_matrix_after_a_valid_one",
        "non_integer_entry_after_a_valid_one", "hodge_check_dim_7",
        "enumerate_dim_0", "negative_precision", "unknown_builtin",
        "forge_bound_0", "forge_box_over_budget", "enumerate_over_budget",
        "spec_box_over_budget", "enumerate_dim_over_cap"])
def test_refusal_loads_no_sympy(tmp_path, spec, argv):
    if argv is None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = ["analyze", str(path)]
    code = f"from toraldyn.cli import main\nassert main({argv!r}) == 3"
    assert _numeric_modules_after(code) == "[]"


def _mpmath_approx_str(q: Fraction, digits: int) -> str:
    # the mpmath.libmp route the CLI printed with before its integer port
    from mpmath.libmp import (dps_to_prec, from_rational, prec_to_dps,
                              round_nearest, to_str)
    prec = dps_to_prec(digits + 3)
    text = to_str(from_rational(q.numerator, q.denominator, prec,
                                round_nearest),
                  prec_to_dps(prec), strip_zeros=False)
    if text.startswith("-.0"):
        return "-0." + text[3:]
    if text.startswith(".0"):
        return "0." + text[2:]
    return text


def test_approx_str_is_mpmath_to_str():
    # both signs, zero, magnitudes 1e-30 to 1e30, decimal, dyadic (ties at
    # the binary precision) and near-power-of-ten values (carries in the
    # decimal rounding), digits 0 to 60 and 1000
    rng = random.Random(23)
    values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]
    while len(values) < 5200:
        kind = rng.randrange(3)
        if kind == 0:
            q = Fraction(rng.randint(1, 10 ** rng.randint(1, 60)),
                         rng.randint(1, 10 ** rng.randint(1, 60)))
        elif kind == 1:
            q = Fraction(rng.randint(1, 2 ** rng.randint(1, 250)),
                         2 ** rng.randint(0, 250))
        else:
            n = rng.randint(1, 40)
            q = Fraction(10**n - rng.randint(0, 3), 10 ** rng.randint(0, n))
        q *= Fraction(10) ** rng.randint(-30, 30)
        if Fraction(1, 10**30) <= q <= 10**30:
            values.append(q * rng.choice((1, -1)))
    for i, q in enumerate(values):
        digits = 1000 if i % 100 == 0 else rng.randint(0, 60)
        assert _approx_str(q, digits) == _mpmath_approx_str(q, digits), \
            (q, digits)


def test_approx_str_is_sympy_float_str():
    # the mpmath.libmp route prints what str(sympy.Float) printed, signs,
    # zero, one and huge and tiny exponents included, at every precision
    rng = random.Random(2026)
    values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3),
              Fraction(-2, 3), Fraction(10**400 + 7, 3),
              Fraction(-1, 10**500), Fraction(7, 2**3000),
              Fraction(99999, 100000), Fraction(-5, 10**6)]
    for _ in range(40):
        num = rng.randint(1, 10**rng.randint(1, 60)) * rng.choice((1, -1))
        den = rng.randint(1, 10**rng.randint(1, 60))
        values.append(Fraction(num, den) * Fraction(10) ** rng.randint(-40, 40))
    for digits in (0, 1, 12, 50, 1000):
        for q in values:
            expected = str(sympy.Float(sympy.Rational(q.numerator,
                                                      q.denominator),
                                       digits + 3))
            assert _approx_str(q, digits) == expected, (q, digits)


# ---------------------------------------------------------------------------
# bounded fuzz of the exit-code contract
# ---------------------------------------------------------------------------

# in-range values and values past every cap
FUZZ_INTS = st.one_of(st.integers(-5, 40), st.integers(1001, 10**6))
FUZZ_BOUNDS = st.one_of(st.integers(-2, 4), st.integers(1001, 10**6))


@st.composite
def _cheap_argv(draw, json_paths):
    command = draw(st.sampled_from(["analyze", "enumerate", "hodge-check",
                                    "forge"]))
    precision = ["--precision", str(draw(FUZZ_INTS))]
    seed = ["--seed", str(draw(FUZZ_INTS))]
    out = draw(st.sampled_from([[], *(["--json", p] for p in json_paths)]))
    if command == "analyze":
        name = draw(st.sampled_from(["cat_T2", "pell_T2", "torsion_i"]))
        return ["analyze", name, *precision, *seed, *out]
    if command == "enumerate":
        dim, bound = draw(st.one_of(
            st.tuples(st.integers(1, 2), st.integers(0, 1)),
            # over the search budget: refused before the search
            st.tuples(st.integers(4, 200), st.integers(1, 3)),
            # a one-point box on either side of the --dim cap, refused
            # before any import above it
            st.tuples(st.one_of(st.integers(1, MAX_ENUMERATE_DIM),
                                st.integers(MAX_ENUMERATE_DIM + 1, 10**6)),
                      st.just(0))))
        return ["enumerate", "--dim", str(dim), "--bound", str(bound),
                *precision, *out]
    if command == "hodge-check":
        return ["hodge-check", "--dim", str(draw(st.integers(2, 3))),
                "--samples", str(draw(st.one_of(
                    st.integers(-5, 40), st.integers(MAX_SAMPLES + 1, 10**6)))),
                *seed, *out]
    poly, bound = draw(st.one_of(
        st.tuples(st.just("1,-1,-2,1"), FUZZ_BOUNDS),
        # x^d - 2 of degree 14 to 3001: over the search budget, refused
        # before the field is factored
        st.builds(lambda d, b: ("1," + "0," * (d - 1) + "-2", b),
                  st.integers(14, 3001), st.integers(1, 2))))
    return ["forge", "--poly", poly, "--bound", str(bound), *precision,
            *seed, *out]


_CAT_SPEC = {"kind": "torus_group", "complex_dim": "2", "generators": [
    {"name": "cat", "matrix": [[["2", "0"], ["1", "0"]],
                               [["1", "0"], ["1", "0"]]]}]}
_FIELD_SPEC = {"kind": "number_field", "min_poly": ["1", "0", "-2"],
               "coeff_bound": "2"}
# every field of the two spec kinds, as a path of keys and indices
_SPEC_FIELDS = (
    [(_CAT_SPEC, path) for path in (
        ("kind",), ("complex_dim",), ("generators",), ("generators", 0),
        ("generators", 0, "name"), ("generators", 0, "matrix"),
        ("generators", 0, "matrix", 0), ("generators", 0, "matrix", 0, 0),
        ("generators", 0, "matrix", 0, 0, 0))]
    + [(_FIELD_SPEC, path) for path in (
        ("kind",), ("min_poly",), ("min_poly", 0), ("coeff_bound",))])
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(10**6, 10**7),
    st.floats(), st.text(max_size=4), st.lists(st.none(), max_size=2),
    st.dictionaries(st.sampled_from(["kind", "x"]), st.none(), max_size=2))


def _assert_contract(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_INVALID), (argv, code)
    assert "Traceback" not in err, (argv, err)


_FUZZ = settings(max_examples=100, derandomize=True, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def test_cli_contract_fuzz(tmp_path, capsys):
    # in-process: about 3-5 s for both searches (budget 30 s)
    start = time.perf_counter()

    # a writable report path and one in a directory that does not exist
    json_paths = [str(tmp_path / "report.json"),
                  str(tmp_path / "missing" / "report.json")]

    @_FUZZ
    @given(_cheap_argv(json_paths))
    def argv_keeps_contract(argv):
        _assert_contract(capsys, argv)

    @_FUZZ
    @given(st.sampled_from(_SPEC_FIELDS), _JSON_VALUES)
    def spec_keeps_contract(field, value):
        base, path = field
        spec = copy.deepcopy(base)
        node = spec
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        _assert_contract(capsys, ["analyze", str(spec_path)])

    argv_keeps_contract()
    spec_keeps_contract()
    assert time.perf_counter() - start < 30


# Gaussian entries with real and imaginary parts in [-2, 2]
_SMALL = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@functools.lru_cache(maxsize=None)
def _small_unit_matrices(k):
    """Every k x k matrix (k <= 2) of ``_SMALL`` entries with a unit of Z[i]
    as its determinant."""
    entries = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    units = ((1, 0), (-1, 0), (0, 1), (0, -1))
    if k == 1:
        return [[[u]] for u in units]
    out = []
    for (a, b), (c, d), (e, f), (g, h) in itertools.product(entries, repeat=4):
        if (a * g - b * h - c * e + d * f, a * h + b * g - c * f - d * e) \
                in units:
            out.append([[(a, b), (c, d)], [(e, f), (g, h)]])
    return out


@st.composite
def _small_spec_argv(draw, path):
    """A torus_group spec of one to three generators of size k <= 2, each a
    unit-determinant matrix or free ``_SMALL`` entries, under a declared
    dimension that may differ; written to ``path`` and analyzed with
    optional --precision and --seed."""
    dim = draw(st.integers(1, 2))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.sampled_from((dim, dim, 1, 2)))
        gens.append(draw(st.one_of(
            st.sampled_from(_small_unit_matrices(k)),
            st.lists(st.lists(_SMALL, min_size=k, max_size=k),
                     min_size=k, max_size=k))))
    path.write_text(json.dumps({
        "kind": "torus_group", "complex_dim": str(dim),
        "generators": [{"name": f"g{t}", "matrix": [
            [[str(re), str(im)] for re, im in row] for row in M]}
            for t, M in enumerate(gens)]}))
    argv = ["analyze", str(path)]
    if draw(st.booleans()):
        argv += ["--precision", str(draw(st.integers(-2, 40)))]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(-2, 40)))]
    return argv


def test_cli_small_spec_fuzz(tmp_path, capsys):
    # whole specs of small shape through cli.main, in-process: about 3 s
    # (budget 30 s)
    start = time.perf_counter()

    @_FUZZ
    @given(_small_spec_argv(tmp_path / "spec.json"))
    def small_spec_keeps_contract(argv):
        _assert_contract(capsys, argv)

    small_spec_keeps_contract()
    assert time.perf_counter() - start < 30


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
