"""Answer checks that do not come from the program under test.

``check(request, stdout)`` returns ``None`` when the output is right, or a
one-line reason when it is wrong.

- catalog: the known ranks, ``u_order`` of pell_plus_torsion, the first
  dynamical degree of the cat map, the minimal positive ``d1`` of the
  ``enumerate`` box, and byte equality with the reports stored in
  ``golden/`` (written by the CLI at the commit that added this benchmark).
- hodge-check (the catalog's ``hodge_k4`` request): no failures and the
  requested number of samples.
- random-spectra: 50-digit mpmath eigenvalues give the entropy
  ``2 * sum log|lambda|`` over ``|lambda| > 1``, which must lie in the
  certified interval, and the classification; for a pair ``(g, g^j)`` the
  rank is 1 when ``g`` has positive entropy and 0 otherwise.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import mpmath

from workloads import identity, mat_mul

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")

CATALOG_RANK = {"cat_T2": 1, "pell_T2": 1, "parabolic_T2": 0,
                "torsion_i": 0, "pell_plus_torsion": 1, "cubic_T3": 2,
                "forge_cubic": 2, "forge_quartic": 3}

DIGITS = 50
# |lambda| - 1 above this is expansion; a Jordan block of size 3 perturbs a
# unimodular eigenvalue by about 10^(-DIGITS/3), far below it
EXPANDING = mpmath.mpf(10) ** -10
# slack around the certified interval for the 50-digit oracle value
SLACK = mpmath.mpf(10) ** -30
# finite orders in GL(3, Z[i]) lie far below this
ORDER_BOUND = 120


def _contains(interval, value):
    lo, hi = (Fraction(s) for s in interval)
    with mpmath.workdps(DIGITS):
        lo = mpmath.mpf(lo.numerator) / lo.denominator
        hi = mpmath.mpf(hi.numerator) / hi.denominator
        return lo - SLACK <= value <= hi + SLACK


def _cat_d1():
    with mpmath.workdps(DIGITS):
        return (7 + 3 * mpmath.sqrt(5)) / 2


def _check_catalog(name, stdout):
    golden = os.path.join(GOLDEN_DIR, f"{name}.json")
    if os.path.exists(golden):
        with open(golden, "rb") as fh:
            if fh.read() != stdout:
                return f"{name}: report differs from golden/{name}.json"
    data = json.loads(stdout)
    if name == "enumerate_2_2":
        if not _contains(data["min_positive_entropy_d1"]["interval"],
                         _cat_d1()):
            return "enumerate: minimal positive d1 is not (7+3*sqrt5)/2"
        return None
    report = data["report"] if name.startswith("forge") else data
    if report.get("rank") != str(CATALOG_RANK[name]):
        return f"{name}: rank {report.get('rank')} != {CATALOG_RANK[name]}"
    if name == "pell_plus_torsion" and \
            report["decomposition"]["u_order"] != "4":
        return "pell_plus_torsion: u_order is not 4"
    if name == "cat_T2" and not _contains(
            report["generators"][0]["degrees"][1]["interval"],
            _cat_d1()):
        return "cat_T2: d1 does not contain (7+3*sqrt5)/2"
    return None


def _check_fuzz(samples, stdout):
    fuzz = json.loads(stdout)["semipositivity_fuzz"]
    if fuzz["failures"] != "0" or fuzz["passed"] is not True:
        return f"fuzz: {fuzz['failures']} failures"
    if fuzz["samples"] != str(samples):
        return f"fuzz: {fuzz['samples']} samples, asked for {samples}"
    return None


def _finite_order(M):
    one, P = identity(len(M)), M
    for _ in range(ORDER_BOUND):
        if P == one:
            return True
        P = mat_mul(P, M)
    return False


def expected_generator(M):
    """(entropy, classification) of a Gaussian-integer matrix."""
    with mpmath.workdps(DIGITS):
        A = mpmath.matrix([[mpmath.mpc(re, im) for re, im in row]
                           for row in M])
        moduli = [abs(ev) for ev in mpmath.eig(A, left=False, right=False)]
        h = 2 * sum((mpmath.log(m) for m in moduli if m > 1 + EXPANDING),
                    mpmath.mpf(0))
    if h > 0:
        return h, "positive_entropy"
    if _finite_order(M):
        return h, "finite_order_on_cohomology"
    return h, "parabolic"


def _check_random(matrices, stdout):
    report = json.loads(stdout)
    if report.get("commuting") is not True:
        return "random: generators reported as not commuting"
    positive = []
    for M, gen in zip(matrices, report["generators"], strict=True):
        h, cls = expected_generator(M)
        if not _contains(gen["entropy"]["interval"], h):
            return (f"random: entropy {mpmath.nstr(h, 15)} outside "
                    f"{gen['entropy']['interval']}")
        if gen["classification"] != cls:
            return f"random: classification {gen['classification']} != {cls}"
        positive.append(h > 0)
    if len(matrices) == 2:
        rank = "1" if positive[0] else "0"
        if report.get("rank") != rank:
            return f"random: pair rank {report.get('rank')} != {rank}"
    return None


def check(request, stdout):
    """None if ``stdout`` answers ``request`` correctly, else a reason."""
    info = request.check
    try:
        if "catalog" in info:
            return _check_catalog(info["catalog"], stdout)
        if "fuzz_samples" in info:
            return _check_fuzz(info["fuzz_samples"], stdout)
        return _check_random(info["matrices"], stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{request.name}: unreadable report ({exc!r})"
