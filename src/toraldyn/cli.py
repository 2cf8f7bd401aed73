"""Command-line surface: deterministic JSON analysis reports.

Subcommands
    analyze    full pipeline on a group spec file or a builtin catalog name
    hodge-check  exact + randomized positivity certification for H^{1,1}
    forge      build a maximal-rank group from a totally real field
    enumerate  distinct first dynamical degrees at a coefficient bound

Exit codes: 0 = all assertions pass; 2 = theorem violation (an implementation
bug, never accepted); 3 = invalid input (a usage error among them), a refused
budget, or input the exact machinery cannot certify (unsupported input).  All
integers in JSON are arbitrary-precision decimal strings; every inexact number
is tagged as an approximation and accompanied by a certified rational
interval.

Each subcommand imports its machinery after its input checks, so a refused
option, spec or search box (``SEARCH_BUDGET``) and the whole of
``hodge-check`` run without sympy or mpmath.  Only the refusals that need the
machinery load it: ``example_forge`` decides whether a ``--poly`` is monic,
irreducible and totally real, and whether its box holds enough units.
``analyze`` imports sympy only when a generator has positive entropy: a
family of zero-entropy generators is decided on integers (``integer_model``)
and printed on them (``_approx_str``).

The process entry is ``run``: ``python -m toraldyn.cli`` and the
``toraldyn`` console script call it.  It turns the cyclic GC off, calls
``main``, flushes stdout and stderr and ends the process with
``os._exit``.  A process that loaded sympy would otherwise spend about
0.1 s tearing down its modules and a few hundredths of a second in GC
passes over sympy's import-time objects; a request makes too little cyclic
garbage for either to matter before the process ends.  ``main`` itself
keeps normal GC and teardown, because its in-process callers (the tests,
``perfbench/tracer.py``) go on running after it returns.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, NoReturn

from . import ExactAlgebraError, __version__

if TYPE_CHECKING:
    from .exact_algebra import CertifiedReal
    from .group_structure import GroupAnalysis
    from .integer_model import GroupSpec, IntegerLattice, TorusAutomorphism

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_INVALID = 3

DEFAULT_DIGITS = 12
# the unit-search coefficient bound of forge and of a number_field spec
DEFAULT_COEFF_BOUND = 4
# the widest --precision accepted: interval endpoints stay far below
# Python's 4300-digit limit on integer-to-string conversion
MAX_DIGITS = 1000
# the most hodge-check samples accepted: about 45 s at k = 4
MAX_SAMPLES = 10_000
# the widest enumerate --dim accepted: at --bound 0 the box is the one zero
# matrix, and k = 200 runs in 0.7-0.9 s cold on a 2-core x86 machine
MAX_ENUMERATE_DIM = 200
# the most points a brute-force box search may visit: the (2B+1)^(k^2)
# matrices of enumerate and the (2B+1)^k coefficient box of a forge
SEARCH_BUDGET = 3_000_000
# log2(10), mpmath's factor between decimal digits and bits
_BITS_PER_DIGIT = 3.3219280948873626


class CliInputError(ValueError):
    """Invalid or unsupported input; maps to exit code 3."""


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _approx_str(q: Fraction, digits: int) -> str:
    """q to ``digits + 3`` significant digits as sympy prints a ``Float`` of
    that precision (mpmath's ``to_str``), on integers alone: q rounded to
    nearest, ties to even, at the binary precision of that many digits, its
    decimal digits floored with three guard digits and rounded half up to
    the digits that precision holds, in fixed-point form near unit
    magnitude.  Outside 2^-3500 .. 2^3500 in magnitude, where mpmath scales
    by an approximate power of ten, the digits here stay exact."""
    prec = round((digits + 4) * _BITS_PER_DIGIT)
    dps = max(1, round(prec / _BITS_PER_DIGIT) - 1)
    if q == 0:
        return "0.0"
    # |q| = m 2^e to nearest, 2^(prec-1) <= m <= 2^prec
    x = abs(q)
    e = x.numerator.bit_length() - x.denominator.bit_length() - prec
    e += x >= Fraction(2) ** (e + prec)
    m = round(x / Fraction(2) ** e)
    fixprec = max(int((dps + 3) * _BITS_PER_DIGIT) + 10 - m.bit_length() - e,
                  0)
    fixdps = int(fixprec / _BITS_PER_DIGIT + 0.5)
    shift = e + fixprec
    fixed = m << shift if shift >= 0 else m >> -shift
    text = str(fixed * 10**fixdps >> fixprec)
    exponent = len(text) - fixdps - 1
    if len(text) > dps and text[dps] in "56789":
        text = str(int(text[:dps]) + 1)
        if len(text) > dps:
            text, exponent = text[:dps], exponent + 1
    else:
        text = text[:dps]
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            text = "0" * -exponent + text
        else:
            split = exponent + 1
        exponent = 0
    text = "-" * (q < 0) + text[:split] + "." + text[split:]
    return text if exponent == 0 else f"{text}e{exponent:+d}"


def _certified_json(value: CertifiedReal | Fraction, digits: int) -> dict:
    """The interval and approximation of a certified real; a Fraction, a
    value the integer model decides exactly, is its own point interval."""
    if isinstance(value, Fraction):
        lo = hi = value
    else:
        lo, hi = value.enclosure(Fraction(1, 2 * 10**digits))
    return {
        "interval": [_frac_str(lo), _frac_str(hi)],
        "approx": _approx_str((lo + hi) / 2, digits),
        "approx_is_approximation": True,
    }


def _degree_json(value: CertifiedReal | Fraction, digits: int) -> dict:
    """A dynamical degree or an ``enumerate`` d1 with its minimal
    polynomial, the one place a report prints one: the integer kernel's
    (``real_root``), or q x - p for a rational p/q (1 at zero entropy)."""
    out = _certified_json(value, digits)
    if isinstance(value, Fraction):
        poly = (value.denominator, -value.numerator)
    else:
        from .exact_algebra import real_root
        poly = real_root(value).poly
    out["min_poly"] = [str(c) for c in poly]
    return out


def _expr_json(value, digits: int) -> dict:
    """An exact value and its interval; a ``RealRoot`` (a multiplier of a
    factor with a non-real root) gives the interval from its own isolation."""
    from .exact_algebra import CertifiedReal, RealRoot
    if not isinstance(value, RealRoot):
        value = CertifiedReal(value)
    out = _certified_json(value, digits)
    out["exact"] = str(value.expr)
    return out


def _matrix_json(g: TorusAutomorphism) -> list:
    return [[[str(re), str(im)] for re, im in row] for row in g.pairs]


def _lattice_json(lat: IntegerLattice) -> dict:
    return {"ambient_rank": str(lat.ambient_rank),
            "basis": [[str(v) for v in row] for row in lat.basis]}


def _words_json(words) -> list:
    return [[str(v) for v in w] for w in words]


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------

def _entry_from_pair(pair) -> tuple:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise CliInputError("matrix entries must be [re, im] pairs")
    try:
        return int(str(pair[0])), int(str(pair[1]))
    except ValueError as exc:
        raise CliInputError(f"non-integer matrix entry {pair!r}") from exc


def _group_from_json(data: dict) -> GroupSpec:
    """A torus_group spec's group; its whole shape is checked before import."""
    try:
        k = int(str(data["complex_dim"]))
        gens = data["generators"]
    except (KeyError, ValueError) as exc:
        raise CliInputError(f"malformed torus_group spec: {exc}") from exc
    _require_in_range("complex_dim", k, 1)
    if not isinstance(gens, list):
        raise CliInputError("generators must be a list")
    if not gens:
        raise CliInputError("at least one generator required")
    named = []
    for idx, g in enumerate(gens):
        if not isinstance(g, dict):
            raise CliInputError(f"generator {idx} must be an object")
        rows = g.get("matrix")
        name = str(g.get("name", f"g{idx}"))
        if (not isinstance(rows, list) or len(rows) != k
                or any(not isinstance(r, list) or len(r) != k
                       for r in rows)):
            raise CliInputError(f"generator {name}: matrix must be {k}x{k}")
        named.append((name, [[_entry_from_pair(v) for v in r] for r in rows]))
    from .integer_model import GroupSpec, TorusAutomorphism
    autos = []
    for name, rows in named:
        try:
            autos.append(TorusAutomorphism(rows, name=name))
        except ValueError as exc:
            raise CliInputError(f"generator {name}: {exc}") from exc
    return GroupSpec(tuple(autos))


def _field_from_json(data: dict) -> tuple:
    """(min_poly coefficients, coeff_bound) of a number_field spec."""
    try:
        coeffs = tuple(int(str(c)) for c in data["min_poly"])
        return coeffs, int(str(data.get("coeff_bound", DEFAULT_COEFF_BOUND)))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"malformed number_field spec: {exc}") from exc


def load_group_argument(arg: str):
    """Resolve a CLI group argument: a JSON spec file path or a builtin name.

    Returns ``(GroupSpec, forge_info_or_None)``.
    """
    if os.path.exists(arg):
        try:
            with open(arg) as fh:
                data = json.load(fh)
        # ValueError covers a bad encoding, bad JSON and an over-long int
        except (OSError, ValueError, RecursionError) as exc:
            raise CliInputError(f"cannot read spec file {arg}: {exc}") from exc
        if not isinstance(data, dict):
            raise CliInputError(f"spec file {arg} must hold a JSON object")
        kind = data.get("kind")
        if kind == "torus_group":
            return _group_from_json(data), None
        if kind == "number_field":
            forged = _forge_or_raise(*_field_from_json(data))
            return forged.analysis.spec, forged
        raise CliInputError(f"unknown spec kind {kind!r}")
    from .integer_model import _CATALOG, catalog_group
    if arg in _CATALOG:
        return catalog_group(arg), None
    raise CliInputError(
        f"{arg!r} is neither a file nor a builtin name "
        f"(builtins: {', '.join(sorted(_CATALOG))})")


def _require_in_range(option: str, value: int, low: int, high=None) -> None:
    if value < low:
        raise CliInputError(f"{option} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise CliInputError(f"{option} must be at most {high}, got {value}")


def _require_box_in_budget(box: str, bound: int, dim: int) -> None:
    """Refuse a search over the (2B+1)^d points of ``dim`` coordinates in
    [-bound, bound] when they are more than ``SEARCH_BUDGET``.  A side of
    n bits makes (2B+1)^d at least 2^((n - 1) d), so a huge box is refused
    before any power is taken; the message names the box, not its size."""
    side = 2 * bound + 1
    if ((side.bit_length() - 1) * dim >= SEARCH_BUDGET.bit_length()
            or side ** dim > SEARCH_BUDGET):
        raise CliInputError(f"{box} exceeds the search budget of "
                            f"{SEARCH_BUDGET} points; lower the bound")


def _forge_or_raise(coeffs: tuple, bound: int):
    """The one way into the forge, for ``forge`` and a number_field spec."""
    _require_in_range("the coefficient bound", bound, 1)
    _require_box_in_budget("the unit search over the (2B+1)^k coefficient box",
                           bound, len(coeffs) - 1)
    from .example_forge import (ForgeError, NumberFieldSpec,
                                build_max_rank_group)
    try:
        return build_max_rank_group(NumberFieldSpec(coeffs), bound)
    except ForgeError as exc:
        raise CliInputError(str(exc)) from exc


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _generator_report(g: TorusAutomorphism, digits: int) -> dict:
    from .integer_model import classify, degree_profile, h11_charpoly
    prof = degree_profile(g)
    return {
        "name": g.name,
        "matrix": _matrix_json(g),
        "h11_charpoly": [str(c) for c in h11_charpoly(g)],
        "degrees": [_degree_json(d, digits) for d in prof.degrees],
        "entropy": _certified_json(prof.entropy, digits),
        "classification": classify(g),
    }


def _structure_json(analysis: GroupAnalysis) -> dict:
    """The structure theorems' statuses, constant: each check of
    ``assert_structure_theorems`` raises on a violation, which exits 2
    before any report is built."""
    return {
        "rank_bound_r_le_k_minus_1": "pass",
        "binomial_bounds": [
            {"n": str(n), "binom_r_n": str(b), "h_n": str(h),
             "bound": str(bound), "status": "pass"}
            for (n, b, h, bound) in analysis.binomial_bounds],
        "wedge_chain": {"length": str(analysis.rank.rank + 1),
                        "status": "pass"},
        "positive_entropy_certified": True,
    }


def build_analysis_report(analysis: GroupAnalysis, digits: int,
                          seed: int) -> dict:
    spec = analysis.spec
    report = {
        "tool": f"toraldyn {__version__}",
        "seed": str(seed),
        "kind": "torus_group",
        "complex_dim": str(spec.k),
        "commuting": analysis.witness is None,
        "generators": [_generator_report(g, digits)
                       for g in spec.generators],
    }
    if analysis.witness is not None:
        i, j = analysis.witness
        report["non_commuting_witness"] = [str(i), str(j)]
        return report
    res = analysis.rank
    table = res.table
    report["characters"] = {
        "m": str(table.m),
        "semisimple": table.semisimple,
        "modulus_squared": [
            [_expr_json(v, digits) for v in ch.multipliers]
            for ch in table.characters],
    }
    report["rank"] = str(res.rank)
    report["pi_kernel"] = _lattice_json(res.kernel)
    report["assertions"] = _structure_json(analysis)
    dec = analysis.decomposition
    report["decomposition"] = {
        "free_words": _words_json(res.free_words),
        "u_words": _words_json(res.u_words),
        "u_finite": dec.u_order is not None,
        "u_order": None if dec.u_order is None else str(dec.u_order),
        "relation_lattice": _lattice_json(dec.relation_lattice),
    }
    return report


def _forged_json(forged) -> dict:
    return {
        "min_poly": [str(c) for c in forged.units.field.coeffs],
        "units": _words_json(forged.units.units),
        "independence_certificate": forged.units.certificate,
    }


def _emit(report: dict, json_out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if json_out:
        try:
            with open(json_out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise CliInputError(f"cannot write report to {json_out}: "
                                f"{exc.strerror or exc}") from exc
        text = f"report written to {json_out}"
    _print(text, sys.stdout)


def _print(text: str, stream) -> None:
    """Print a line of the report or of a message to ``stream``; a reader
    that has closed it loses the line, and the exit code still carries the
    verdict."""
    try:
        print(text, file=stream)
        stream.flush()
    except BrokenPipeError:
        _drop_closed(stream)


def _drop_closed(stream) -> None:
    """Point a stream whose reader has gone at the null device, so that no
    later write or the interpreter's exit flush raises again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    _require_in_range("--precision", args.precision, 0, MAX_DIGITS)
    spec, forged = load_group_argument(args.spec)
    from .group_structure import analyze_group
    analysis = analyze_group(spec) if forged is None else forged.analysis
    report = build_analysis_report(analysis, args.precision, args.seed)
    if forged is not None:
        report["forged_from"] = _forged_json(forged)
    _emit(report, args.json)
    if analysis.witness is not None:
        _print("generators do not commute; input rejected", sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def cmd_hodge_check(args) -> int:
    k, samples, seed = args.dim, args.samples, args.seed
    _require_in_range("--samples", samples, 0, MAX_SAMPLES)
    if k not in (2, 3, 4):
        raise CliInputError(
            f"dimension {k} refused: the exact positivity suite is budgeted "
            "for k in {2, 3, 4}")
    from .hodge_riemann import gromov_fuzz, hodge_riemann_definite
    identity = hodge_riemann_definite(
        [[(int(i == j), 0) for j in range(k)] for i in range(k)])
    fuzz = gromov_fuzz(k, samples, seed)
    report = {
        "tool": f"toraldyn {__version__}",
        "kind": "hodge_check",
        "k": str(k),
        "identity_form": {
            "passed": identity.passed,
            "positive_definite_on_primitive": identity.passed,
            "certificate": ("all Schur pivots of the restricted form "
                            "negative-definite side verified exactly"
                            if identity.passed else "failed"),
            "witness": (None if identity.witness is None
                        else [str(v) for v in identity.witness]),
        },
        "semipositivity_fuzz": {
            "samples": str(fuzz.samples),
            "seed": str(fuzz.seed),
            "failures": str(len(fuzz.failures)),
            "degenerate_skipped": str(fuzz.degenerate_skipped),
            "passed": fuzz.passed,
        },
    }
    _emit(report, args.json)
    if identity.passed and fuzz.passed:
        return EXIT_OK
    _print("THEOREM VIOLATION: positivity failure", sys.stderr)
    return EXIT_VIOLATION


def cmd_forge(args) -> int:
    _require_in_range("--precision", args.precision, 0, MAX_DIGITS)
    try:
        coeffs = tuple(int(c) for c in args.poly.split(","))
    except ValueError as exc:
        raise CliInputError(f"cannot parse --poly {args.poly!r}") from exc
    forged = _forge_or_raise(coeffs, args.bound)
    spec = forged.analysis.spec
    spec_json = {
        "kind": "torus_group",
        "complex_dim": str(spec.k),
        "generators": [
            {"name": g.name, "matrix": _matrix_json(g)}
            for g in spec.generators],
    }
    report = build_analysis_report(forged.analysis, args.precision, args.seed)
    report["forged_from"] = _forged_json(forged)
    _emit({"spec": spec_json, "report": report}, args.json)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    _require_in_range("--dim", args.dim, 1)
    _require_in_range("--bound", args.bound, 0)
    _require_in_range("--precision", args.precision, 0, MAX_DIGITS)
    _require_box_in_budget("the search over the (2B+1)^(k^2) matrices",
                           args.bound, args.dim ** 2)
    _require_in_range("--dim", args.dim, 1, MAX_ENUMERATE_DIM)
    from .cohomology import enumerate_degree_values
    from .exact_algebra import real_root
    values = enumerate_degree_values(args.dim, args.bound)
    digits = args.precision
    positive = [v for v in values if real_root(v).compare(1) > 0]
    report = {
        "tool": f"toraldyn {__version__}",
        "kind": "degree_enumeration",
        "k": str(args.dim),
        "entry_bound": str(args.bound),
        "distinct_d1": [_degree_json(v, digits) for v in values],
        "count": str(len(values)),
    }
    if positive:
        vmin = positive[0]
        report["min_positive_entropy_d1"] = _degree_json(vmin, digits)
        report["gap_statement"] = (
            "no first dynamical degree lies strictly between 1 and "
            + _approx_str(sum(vmin.enclosure(), Fraction(0)) / 2, digits))
    else:
        report["gap_statement"] = ("all automorphisms in the search box have "
                                   "zero entropy (d1 = 1)")
    _emit(report, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A usage error exits 3 like any invalid input: 2 means a proved
    theorem violation.  Subparsers are made of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="toraldyn",
        description=("Exact cohomological dynamics of commuting automorphism "
                     "groups of complex tori (C/Z[i])^k."))
    ap.add_argument("--version", action="version",
                    version=f"toraldyn {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze",
                        help="full structural analysis of a group spec")
    pa.add_argument("spec", help="JSON spec file or builtin name")
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--precision", type=int, default=DEFAULT_DIGITS,
                    metavar="DIGITS",
                    help="interval width 10^-DIGITS for reported numbers")
    pa.add_argument("--json", metavar="OUT", default=None,
                    help="write the report to a file instead of stdout")
    pa.set_defaults(func=cmd_analyze)

    ph = sub.add_parser("hodge-check",
                        help="exact and randomized positivity certification")
    ph.add_argument("--dim", type=int, required=True)
    ph.add_argument("--samples", type=int, default=100)
    ph.add_argument("--seed", type=int, default=0)
    ph.add_argument("--json", metavar="OUT", default=None)
    ph.set_defaults(func=cmd_hodge_check)

    pf = sub.add_parser("forge",
                        help="maximal-rank group from a totally real field")
    pf.add_argument("--poly", required=True,
                    help="descending integer coefficients, e.g. 1,-1,-2,1")
    pf.add_argument("--bound", type=int, default=DEFAULT_COEFF_BOUND,
                    help="unit search coefficient bound, a ceiling")
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--precision", type=int, default=DEFAULT_DIGITS,
                    metavar="DIGITS")
    pf.add_argument("--json", metavar="OUT", default=None)
    pf.set_defaults(func=cmd_forge)

    pe = sub.add_parser("enumerate",
                        help="distinct first dynamical degrees at a bound")
    pe.add_argument("--dim", type=int, required=True)
    pe.add_argument("--bound", type=int, required=True)
    pe.add_argument("--precision", type=int, default=DEFAULT_DIGITS,
                    metavar="DIGITS")
    pe.add_argument("--json", metavar="OUT", default=None)
    pe.set_defaults(func=cmd_enumerate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        _print(f"invalid input: {exc}", sys.stderr)
        return EXIT_INVALID
    except ExactAlgebraError as exc:
        _print(f"unsupported input: {exc}", sys.stderr)
        return EXIT_INVALID
    except AssertionError as exc:
        _print(f"{exc}", sys.stderr)
        return EXIT_VIOLATION


def run(argv=None) -> NoReturn:
    """The process entry: ``main`` with the cyclic GC off, then the streams
    flushed and ``os._exit`` with its code, skipping the interpreter's
    teardown.  An exception that escapes ``main`` propagates and the
    process ends as usual."""
    gc.disable()
    code = main(argv)
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            _drop_closed(stream)
    os._exit(code)


if __name__ == "__main__":
    run()
