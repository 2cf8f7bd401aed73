"""Cold-process verdict benchmark for the toraldyn CLI.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 25 --trace 0

One client sends requests in a closed loop: each request is a fresh
``python -m toraldyn.cli ...`` process, started only after the previous one
has exited, so at most one child runs at a time.  A run sends
``round(--seconds / nominal cycle length)`` whole cycles of the workload's
requests, at least one (see ``workloads.py``), so the work of a run does not
depend on the machine's speed.  Each request has the workload's deadline.
A request that times out, exits non-zero, prints a traceback or gives an
answer the oracle rejects (``oracle.py``) is failed and is charged the
deadline in every timing metric.  ``setup_s`` is the median time of
``SETUP_REPEATS`` fresh ``import toraldyn.cli`` processes spread between the
requests.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` sends every
request twice, plain and then through ``tracer.py``, checks that both print
the same bytes, and prints the per-layer metrics.  Every metric is printed as
``name value unit`` first; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import oracle
import workloads
from tracer import ALARM_EXIT, LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
TRACER = os.path.join(HERE, "tracer.py")
# spec files, child output and spans of the running benchmark
WORK_ROOT = os.path.join(HERE, "_work")
SETUP_REPEATS = 7
# the traced child stops itself this long before the deadline, so its spans
# are written before the parent would kill it
ALARM_MARGIN = 0.5
FAILURE_KINDS = ("timeout", "traceback", "exit", "wrong")

# per-function ratios named in the layer table of NOTES.md
CALLS_PER_REQUEST = ("cohomology.eigenvalue_moduli",
                     "group_structure.find_characters",
                     "group_structure.pi_rank")


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


@dataclass
class Outcome:
    seconds: float
    rc: int
    timed_out: bool
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


@dataclass
class Record:
    request: workloads.Request
    out: Outcome
    kind: str | None        # one of FAILURE_KINDS, None when correct
    reason: str = ""        # the oracle's reason for a wrong answer


def end_to_end_specs():
    return [("setup_s", "s", "lower"),
            ("verdicts_per_min", "1/min", "higher"),
            ("peak_rss_mb", "MB", "lower")]


def per_layer_specs():
    specs = []
    for layer, names in LAYERS.items():
        for fn in names:
            specs.append((f"{layer}.{fn}.calls", "count", "lower"))
            specs.append((f"{layer}.{fn}.self_s", "s", "lower"))
        specs += [(f"{layer}.self_s", "s", "lower"),
                  (f"{layer}.share", "ratio", "lower"),
                  (f"{layer}.errors", "count", "lower"),
                  (f"{layer}.timeouts", "count", "lower")]
    specs += [(f"{q}.calls_per_request", "calls/req", "lower")
              for q in CALLS_PER_REQUEST]
    specs += [("group_structure.kernel_verified_ratio", "ratio", "higher"),
              ("hodge_riemann.degenerate_share", "ratio", "lower"),
              ("hodge_riemann.contexts_per_s", "1/s", "higher"),
              ("trace_overhead_share", "ratio", "lower"),
              ("trace_coverage_share", "ratio", "higher"),
              ("trace_timeouts_outside_spans", "count", "lower"),
              ("failed_share", "ratio", "lower")]
    specs += [(f"failures.{kind}", "count", "lower")
              for kind in FAILURE_KINDS]
    return specs


# ---------------------------------------------------------------------------
# children

class Runner:
    """Starts one child at a time from the checkout root."""

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def run(self, cmd, deadline):
        out_path = os.path.join(self.workdir, "child.out")
        err_path = os.path.join(self.workdir, "child.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL, env=self.env,
                                    cwd=self.root)
            usage = None
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    timed_out = not select.select([pidfd], [], [],
                                                  deadline)[0]
                finally:
                    os.close(pidfd)
                if timed_out:
                    proc.kill()
                # wait4, unlike Popen.wait, reports the child's peak RSS
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                if usage is None:       # interrupted before the child ended
                    proc.kill()
                    proc.wait()
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return Outcome(seconds, proc.returncode, timed_out, usage.ru_maxrss,
                       stdout, stderr)

    def cli(self, argv, deadline):
        return self.run([sys.executable, "-m", "toraldyn.cli", *argv],
                        deadline)

    def traced(self, argv, deadline, spans_path):
        out = self.run([sys.executable, TRACER, "--spans", spans_path,
                        "--alarm", str(deadline - ALARM_MARGIN), "--", *argv],
                       deadline)
        if out.rc == ALARM_EXIT:
            out.timed_out = True
        return out


def judge(request, out):
    """Record of one plain request: its failure kind, if any."""
    if out.timed_out:
        return Record(request, out, "timeout")
    if b"Traceback (most recent call last)" in out.stderr:
        return Record(request, out, "traceback")
    if out.rc != 0:
        return Record(request, out, "exit")
    reason = oracle.check(request, out.stdout)
    if reason is not None:
        return Record(request, out, "wrong", reason)
    return Record(request, out, None)


# ---------------------------------------------------------------------------
# set-up

def check_layers(runner):
    """Fail unless every wrapped layer function resolves.  This first import
    of every toraldyn module also warms the bytecode cache."""
    check = runner.run([sys.executable, TRACER, "--check"], 120)
    if check.rc != 0:
        raise BenchError("layer self-check failed: "
                         + check.stderr.decode(errors="replace").strip())


def time_setup(runner):
    """One fresh interpreter running ``import toraldyn.cli``."""
    out = runner.run([sys.executable, "-c", "import toraldyn.cli"], 120)
    if out.rc != 0:
        raise BenchError("cannot import toraldyn.cli: "
                         + out.stderr.decode(errors="replace").strip())
    return out


def environment(args, deadline):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {"python": platform.python_version()}
    for dist in ("sympy", "mpmath"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {**versions, "nproc": os.cpu_count(),
            "cpu": cpu, "loadavg": os.getloadavg(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "deadline_s": deadline}


# ---------------------------------------------------------------------------
# metrics

def tail_percentile(charged):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(charged)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(charged, n=100)[p - 1]
    return None


def charged_seconds(records, deadline):
    return [deadline if r.kind else r.out.seconds for r in records]


def end_to_end(records, deadline, setup_s):
    charged = charged_seconds(records, deadline)
    ok = sum(1 for r in records if r.kind is None)
    return {
        "setup_s": setup_s,
        "verdicts_per_min": 60.0 * ok / sum(charged),
        "peak_rss_mb": max(r.out.maxrss_kb for r in records) / 1024,
    }


def failure_metrics(records):
    counts = {kind: 0 for kind in FAILURE_KINDS}
    for r in records:
        if r.kind:
            counts[r.kind] += 1
    out = {f"failures.{k}": v for k, v in counts.items()}
    out["failed_share"] = sum(counts.values()) / len(records)
    return out


def fuzz_metrics(records, deadline):
    """Certified samples of the hodge-check requests per second of their
    charged time, and the share of samples skipped as degenerate."""
    hodge = [r for r in records if "fuzz_samples" in r.request.check]
    samples = degenerate = 0
    for r in hodge:
        if r.kind is None:
            fuzz = json.loads(r.out.stdout)["semipositivity_fuzz"]
            samples += int(fuzz["samples"])
            degenerate += int(fuzz["degenerate_skipped"])
    charged = sum(charged_seconds(hodge, deadline))
    return {"hodge_riemann.contexts_per_s":
                samples / charged if charged else 0.0,
            "hodge_riemann.degenerate_share":
                degenerate / samples if samples else 0.0}


def layer_metrics(traced, plain):
    """Per-layer metrics from the traced outcomes and their span files."""
    funcs = {f"{layer}.{fn}": {"calls": 0, "self_s": 0.0, "errors": 0,
                               "true": 0}
             for layer, names in LAYERS.items() for fn in names}
    timeouts = {layer: 0 for layer in LAYERS}
    outside = 0
    top_level = wall = 0.0
    for out, spans in traced:
        wall += out.seconds
        if spans is None:
            outside += out.timed_out
            continue
        top_level += spans["top_level_s"]
        for qual, st in spans["functions"].items():
            for key in funcs[qual]:
                funcs[qual][key] += st[key]
        if out.timed_out:
            where = spans["timeout_in"]
            if where is None:
                outside += 1
            else:
                timeouts[where.split(".", 1)[0]] += 1
    m = {}
    for layer, names in LAYERS.items():
        self_s = errors = 0
        for fn in names:
            st = funcs[f"{layer}.{fn}"]
            m[f"{layer}.{fn}.calls"] = st["calls"]
            m[f"{layer}.{fn}.self_s"] = st["self_s"]
            self_s += st["self_s"]
            errors += st["errors"]
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.share"] = self_s / wall
        m[f"{layer}.errors"] = errors
        m[f"{layer}.timeouts"] = timeouts[layer]
    for q in CALLS_PER_REQUEST:
        m[f"{q}.calls_per_request"] = funcs[q]["calls"] / len(traced)
    verify = funcs["group_structure.verify_zero_entropy_word"]
    m["group_structure.kernel_verified_ratio"] = (
        verify["true"] / verify["calls"] if verify["calls"] else 0.0)
    pairs = [(t.seconds, p.seconds) for (t, _), p in zip(traced, plain)
             if not t.timed_out and not p.timed_out]
    plain_s = sum(p for _, p in pairs)
    m["trace_overhead_share"] = (
        (sum(t for t, _ in pairs) - plain_s) / plain_s if plain_s else 0.0)
    m["trace_coverage_share"] = top_level / wall
    m["trace_timeouts_outside_spans"] = outside
    return m


# ---------------------------------------------------------------------------

def closed_loop(runner, args, deadline):
    """Send the run's whole cycles, one request at a time.  The set-up
    timings are spread evenly between the requests, so a burst of load on
    the machine does not skew all of them."""
    cycles = max(1, round(args.seconds
                          / workloads.CYCLE_SECONDS[args.workload]))
    requests = [req for index in range(cycles)
                for req in workloads.cycle(args.workload, args.seed, index,
                                           runner.workdir)]
    setups_before = [0] * len(requests)
    for k in range(SETUP_REPEATS):
        setups_before[k * len(requests) // SETUP_REPEATS] += 1
    setups, records, traced = [], [], []
    spans_path = os.path.join(runner.workdir, "spans.json")
    for req, n_setups in zip(requests, setups_before):
        setups += [time_setup(runner) for _ in range(n_setups)]
        out = runner.cli(req.argv, deadline)
        records.append(judge(req, out))
        if not args.trace:
            continue
        if os.path.exists(spans_path):
            os.remove(spans_path)
        tout = runner.traced(req.argv, deadline, spans_path)
        if not (out.timed_out or tout.timed_out) and (
                tout.stdout != out.stdout or tout.rc != out.rc):
            raise BenchError(f"{req.name}: traced output differs from "
                             "the untraced output")
        spans = None
        if os.path.exists(spans_path):
            with open(spans_path) as fh:
                spans = json.load(fh)
        traced.append((tout, spans))
    return setups, records, traced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.DEADLINES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds the finally blocks that kill a running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "toraldyn", "cli.py")):
        print("no toraldyn source under src/ of the current directory; run "
              "from the root of a toraldyn checkout", file=sys.stderr)
        return 2
    deadline = workloads.DEADLINES[args.workload]
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    runner = Runner(root, workdir)
    try:
        env = environment(args, deadline)
        check_layers(runner)
        setups, records, traced = closed_loop(runner, args, deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = statistics.median(out.seconds for out in setups)
    setup_rss = max(out.maxrss_kb for out in setups) / 1024
    e2e = end_to_end(records, deadline, setup_s)
    extra = failure_metrics(records)
    extra.update(fuzz_metrics(records, deadline))
    if args.trace:
        extra.update(layer_metrics(traced, [r.out for r in records]))

    print("env " + json.dumps(env, sort_keys=True))
    print(f"requests {len(records)} deadline_s {deadline} "
          f"setup_peak_rss_mb {setup_rss:.1f}")
    for r in records:
        print(f"request {r.request.name} {r.out.seconds:.3f}s rc={r.out.rc} "
              f"{r.kind or 'ok'} {r.reason}".rstrip())
    charged = charged_seconds(records, deadline)
    # the median is one request of the run, so it swings with the machine's
    # speed more than a bound allows; it is printed, not a result metric
    print(f"verdict_s.p50 {statistics.median(charged):.6f} s "
          f"(n={len(charged)})")
    tail = tail_percentile(charged)
    if tail:
        print(f"verdict_s.p{tail[0]} {tail[1]:.6f} s (n={len(charged)})")
    units = {name: unit for name, unit, _ in
             end_to_end_specs() + per_layer_specs()}
    for name, value in list(e2e.items()) + list(extra.items()):
        print(f"{name} {value:.6g} {units[name]}")

    specs = per_layer_specs() if args.trace else end_to_end_specs()
    metrics = {name: {"value": (extra if args.trace else e2e)[name],
                      "unit": unit} for name, unit, _ in specs}
    failed = sum(1 for r in records if r.kind)
    wrong = sum(1 for r in records if r.kind == "wrong")
    print(json.dumps({"correct": wrong == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
