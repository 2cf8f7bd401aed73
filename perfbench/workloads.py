"""Seeded request lists for the benchmark workloads.

A request is one CLI invocation: its argument list, the spec files it reads
and what the answer oracle needs to know about it.  Each workload yields
*cycles* of requests; a run sends a whole number of cycles, so every run sees
the same mix of request kinds whatever the seed and the machine's speed.
"""

from __future__ import annotations

import cmath
import json
import os
import random
from dataclasses import dataclass

# per-workload deadline of one request, in seconds.  catalog: over three
# times its slowest request (cubic_T3 / forge 6 s).
# random-spectra: inside the gap between the requests that decide (0.5 to
# 1.9 s in 370 draws) and the slow ones (non-real traces and non-real
# irreducible cubics: of 90 draws none decided before 4.5 s), about 1.9
# times above the first and 1.3 times below the second, so a slow spell of
# the machine does not turn a pass into a timeout, and a seed gives the
# same failures on every run
DEADLINES = {"catalog": 20.0, "random-spectra": 3.5}

# nominal length of one cycle in seconds at the commit that added the
# benchmark (2-core Xeon); a run sends round(--seconds / this) cycles, at
# least one
CYCLE_SECONDS = {"catalog": 25.0, "random-spectra": 42.0}

CATALOG = (
    ("cat_T2", ["analyze", "cat_T2"]),
    ("pell_T2", ["analyze", "pell_T2"]),
    ("parabolic_T2", ["analyze", "parabolic_T2"]),
    ("torsion_i", ["analyze", "torsion_i"]),
    ("pell_plus_torsion", ["analyze", "pell_plus_torsion"]),
    ("cubic_T3", ["analyze", "cubic_T3"]),
    ("forge_cubic", ["forge", "--poly", "1,-1,-2,1"]),
    ("forge_quartic", ["forge", "--poly", "1,-1,-3,1,1", "--bound", "2"]),
    ("enumerate_2_2", ["enumerate", "--dim", "2", "--bound", "2"]),
)

# (dimension, --samples) of the hodge-check request of every catalog cycle,
# the one request that runs hodge_riemann's Fraction kernels; it takes about
# 3.5 s cold
HODGE = (4, 80)

# random-spectra strata: name -> requests of that kind per cycle.  A
# stratum fixes the ring, whether the spectrum is real, whether the char
# poly splits over Q and whether the generator expands, which together pick
# the rung of the exact_is_zero ladder that decides.  The zero-entropy
# SL(2,Z[i]) generators with real trace are split into the parabolic ones
# (trace +-2) and those of finite order (trace 0, +-1); a finite-order one
# is of "real form" when a diagonal unit change of basis makes it real
# (real diagonal, off-diagonal entries both real or both imaginary), else
# "gaussian".  The non-real irreducible cubics, the non-real traces, the
# gaussian finite-order generators and the expanding pairs are the known
# failures (timeouts, NotAlgebraic tracebacks, exit 2); they are a fixed 7
# of every 24 requests, so neither the failed share nor the charged time
# swings with the seed.  A pair is (g, g^j), j in {2, 3}, with g drawn from
# the real split SL(3,Z) stratum of the named entropy class.  SL(2,Z[i])
# pairs pass or fail unpredictably (now and then a parabolic pair exits 2
# or an expanding one passes); the defects they hit, the LLL failure in
# integer_relations and NotAlgebraic, show in every cycle through the
# expanding SL(3,Z) pairs and the SL(2,Z[i]) strata.  Real irreducible
# cubics (3 to 5 s) are left out: they straddle any deadline that also
# separates the requests that decide from the slow ones, and catalog's
# cubic_T3 and forge_cubic take that rung.
STRATA = (
    ("sl3_real_split_zero", 3),
    ("sl3_real_split_positive", 3),
    ("sl3_nonreal_split", 3),
    ("sl3_nonreal_irreducible", 2),
    ("sl2zi_parabolic", 2),
    ("sl2zi_finite_real_form", 1),
    ("sl2zi_finite_gaussian", 1),
    ("sl2zi_real_trace_positive", 3),
    ("sl2zi_nonreal_trace", 2),
    ("pair_zero", 2),
    ("pair_positive", 2),
)

@dataclass
class Request:
    name: str
    argv: list
    check: dict         # what oracle.check needs to judge the answer


# ---------------------------------------------------------------------------
# Gaussian-integer matrices as lists of complex-free (re, im) int pairs

def mat_mul(A, B):
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            re = im = 0
            for k in range(n):
                a, b = A[i][k], B[k][j]
                re += a[0] * b[0] - a[1] * b[1]
                im += a[0] * b[1] + a[1] * b[0]
            row.append((re, im))
        out.append(row)
    return out


def identity(n):
    return [[(1, 0) if i == j else (0, 0) for j in range(n)]
            for i in range(n)]


def mat_power(A, e):
    out = identity(len(A))
    for _ in range(e):
        out = mat_mul(out, A)
    return out


def _elementary_product(rng, n, length, units):
    M = identity(n)
    for _ in range(length):
        i, j = rng.sample(range(n), 2)
        E = identity(n)
        E[i][j] = rng.choice(units)
        M = mat_mul(M, E)
    return M


def _sl3_stratum(M):
    """Spectrum type of an SL(3,Z) matrix from its integer char poly."""
    a = [[M[i][j][0] for j in range(3)] for i in range(3)]
    t = a[0][0] + a[1][1] + a[2][2]
    s = sum(a[i][i] * a[j][j] - a[i][j] * a[j][i]
            for i in range(3) for j in range(i + 1, 3))
    # char poly x^3 - t x^2 + s x - 1; a rational root must be +-1
    for r in (1, -1):
        if r ** 3 - t * r * r + s * r - 1 == 0:
            # quotient x^2 + p x + q with p = r - t, q = 1/r = r
            p, q = r - t, r
            if p * p - 4 * q < 0:
                # conjugate pair of product 1: on the unit circle
                return "sl3_nonreal_split"
            return "sl3_real_split_" + _entropy_class(p, q)
    # an irreducible cubic is not cyclotomic, so it always expands
    disc = 18 * t * s - 4 * t ** 3 + t * t * s * s - 4 * s ** 3 - 27
    return "sl3_real_irreducible" if disc > 0 else "sl3_nonreal_irreducible"


def _sl2zi_stratum(M):
    """Spectrum type of an SL(2,Z[i]) matrix from its trace, and for the
    finite-order ones whether a diagonal unit change of basis makes it
    real."""
    tr = complex(M[0][0][0] + M[1][1][0], M[0][0][1] + M[1][1][1])
    if tr.imag:
        return "sl2zi_nonreal_trace"
    if _entropy_class(-tr, 1) == "positive":
        return "sl2zi_real_trace_positive"
    if abs(tr.real) == 2:
        return "sl2zi_parabolic"
    (a, b), (c, d) = M
    real_form = (not a[1] and not d[1]
                 and (not (b[1] or c[1]) or not (b[0] or c[0])))
    return ("sl2zi_finite_real_form" if real_form
            else "sl2zi_finite_gaussian")


def _entropy_class(p, q):
    """'positive' if a root of x^2 + p x + q lies off the unit circle, else
    'zero'; the coefficients are small integers, far from the margin."""
    d = cmath.sqrt(p * p - 4 * q)
    expands = max(abs((-p + d) / 2), abs((-p - d) / 2)) > 1 + 1e-9
    return "positive" if expands else "zero"


_SL3_UNITS = ((1, 0), (-1, 0))
_SL2ZI_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _draw(rng, stratum):
    """Rejection-sample a generator whose spectrum lies in ``stratum``."""
    while True:
        if stratum.startswith("sl2zi"):
            M = _elementary_product(rng, 2, rng.randint(3, 5), _SL2ZI_UNITS)
            if _sl2zi_stratum(M) == stratum:
                return M
        else:
            M = _elementary_product(rng, 3, rng.randint(4, 7), _SL3_UNITS)
            if _sl3_stratum(M) == stratum:
                return M


def spec_json(mats):
    return {"kind": "torus_group", "complex_dim": str(len(mats[0])),
            "generators": [
                {"name": f"g{t}",
                 "matrix": [[[str(re), str(im)] for re, im in row]
                            for row in M]}
                for t, M in enumerate(mats)]}


# ---------------------------------------------------------------------------

def cycle(workload, seed, index, workdir):
    """Cycle ``index`` of the seeded requests for ``workload``; spec files go
    to ``workdir``."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "catalog":
        reqs = [Request(name, argv, {"catalog": name})
                for name, argv in CATALOG]
        k, samples = HODGE
        reqs.append(Request(
            f"hodge_k{k}",
            ["hodge-check", "--dim", str(k), "--samples", str(samples),
             "--seed", str(rng.randrange(10 ** 6))],
            {"fuzz_samples": samples}))
    elif workload == "random-spectra":
        reqs = []
        for stratum, count in STRATA:
            for t in range(count):
                if stratum.startswith("pair_"):
                    entropy = stratum[len("pair_"):]
                    g = _draw(rng, f"sl3_real_split_{entropy}")
                    mats = [g, mat_power(g, rng.choice((2, 3)))]
                else:
                    mats = [_draw(rng, stratum)]
                path = os.path.join(workdir, f"c{index}_{stratum}_{t}.json")
                with open(path, "w") as fh:
                    json.dump(spec_json(mats), fh)
                reqs.append(Request(f"{stratum}_{t}", ["analyze", path],
                                    {"matrices": mats}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs
