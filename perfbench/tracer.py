"""Run the toraldyn CLI with its public layer functions wrapped in spans.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py --spans OUT.json --alarm SECONDS -- analyze cat_T2
    python3 perfbench/tracer.py --check

Before ``toraldyn.cli.main`` runs, every function named in ``LAYERS`` is
replaced, in every ``toraldyn.*`` module namespace that binds it, by a wrapper
that keeps a span stack and records calls, total time, self time (total minus
the time of wrapped child spans), exceptions raised from inside the span and
how often the function returned ``True``.  The program itself is not edited.

The process arms its own timer for ``--alarm`` seconds.  When it fires, the
open spans are closed, the innermost one is named as the layer the request
was stuck in, the spans are written and the process exits with
``ALARM_EXIT``.  ``--check`` only verifies that every wrapped name resolves
and exits 0, or ``UNRESOLVED_EXIT`` naming the missing functions.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import signal
import sys
import time

# layer (a module of the toraldyn package) -> public functions wrapped in it
LAYERS = {
    "exact_algebra": ("exact_is_zero", "exact_sign", "root_moduli",
                      "charpoly", "is_cyclotomic_product", "matrix_order",
                      "integer_relations"),
    "cohomology": ("h11_matrix", "eigenvalue_moduli", "degree_profile",
                   "classify", "wedge", "pullback", "is_nef",
                   "enumerate_degree_values"),
    "group_structure": ("find_characters", "pi_rank",
                        "verify_zero_entropy_word",
                        "assert_structure_theorems", "decompose"),
    "hodge_riemann": ("q_gram_fractions", "primitive_functional_fractions",
                      "restrict_symmetric", "symmetric_definiteness",
                      "gromov_fuzz"),
    "example_forge": ("unit_search", "build_max_rank_group"),
    "cli": ("load_group_argument", "build_analysis_report"),
}

ALARM_EXIT = 124
UNRESOLVED_EXIT = 97


class Recorder:
    """Span stack and per-function totals for one process."""

    def __init__(self):
        self.stack = []          # open spans: [name, start, child_seconds]
        self.stats = {}
        self.top_level_s = 0.0
        self.timeout_in = None
        self._last_error = None

    def _stat(self, name):
        return self.stats.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                   "errors": 0, "true": 0})

    def _close(self, now):
        name, start, child = self.stack.pop()
        dur = now - start
        st = self._stat(name)
        st["calls"] += 1
        st["total_s"] += dur
        st["self_s"] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        else:
            self.top_level_s += dur

    def call(self, name, fn, args, kwargs):
        self.stack.append([name, time.perf_counter(), 0.0])
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            # count an exception once, at the innermost span it escapes
            if exc is not self._last_error:
                self._last_error = exc
                self._stat(name)["errors"] += 1
            raise
        finally:
            self._close(time.perf_counter())
        if result is True:
            self._stat(name)["true"] += 1
        return result

    def close_all(self):
        """Close every open span now; return the innermost one's name."""
        innermost = self.stack[-1][0] if self.stack else None
        now = time.perf_counter()
        while self.stack:
            self._close(now)
        return innermost

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"functions": self.stats,
                       "top_level_s": self.top_level_s,
                       "timeout_in": self.timeout_in}, fh)


def resolve():
    """Import every layer module; return ({qualname: function}, missing)."""
    found, missing = {}, []
    for layer, names in LAYERS.items():
        mod = importlib.import_module(f"toraldyn.{layer}")
        for name in names:
            fn = getattr(mod, name, None)
            if callable(fn):
                found[f"{layer}.{name}"] = fn
            else:
                missing.append(f"{layer}.{name}")
    return found, missing


def install(rec, functions):
    """Rebind each function in every toraldyn module namespace holding it."""
    modules = [m for n, m in sys.modules.items()
               if n == "toraldyn" or n.startswith("toraldyn.")]
    for qual, fn in functions.items():
        def wrapper(*args, _q=qual, _fn=fn, **kwargs):
            return rec.call(_q, _fn, args, kwargs)
        wrapper = functools.wraps(fn)(wrapper)
        for mod in modules:
            ns = vars(mod)
            for attr, value in list(ns.items()):
                if value is fn:
                    ns[attr] = wrapper


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--alarm", type=float)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)

    functions, missing = resolve()
    if missing:
        print("unresolved layer functions: " + ", ".join(missing),
              file=sys.stderr)
        return UNRESOLVED_EXIT
    if args.check:
        return 0

    rec = Recorder()

    def on_alarm(signum, frame):
        rec.timeout_in = rec.close_all()
        rec.dump(args.spans)
        os._exit(ALARM_EXIT)

    signal.signal(signal.SIGALRM, on_alarm)
    install(rec, functions)
    cli = sys.modules["toraldyn.cli"]
    cli_args = args.cli_args
    if cli_args and cli_args[0] == "--":
        cli_args = cli_args[1:]
    signal.setitimer(signal.ITIMER_REAL, args.alarm)
    try:
        return cli.main(cli_args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        rec.close_all()
        rec.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
