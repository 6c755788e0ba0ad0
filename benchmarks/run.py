"""Benchmark of indtopo: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload table1 --seed 7 --seconds 15 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of the workload:

- ``wall_rel``: seconds indtopo takes for the workload's fixed batch, every
  output checked, divided by the seconds the frozen reference copy in
  ``reference/indtopo_ref`` (indtopo 0.1.0) takes for the same operations
  in the same run.  The reference runs in a second process pinned to the
  same CPU, in lockstep, one operation of each side after the other, so
  both see the same load on the machine.  The batch is repeated
  while the ``--seconds`` budget lasts (at least once).  Each operation's
  ratio is the median, over the repetitions, of its seconds divided by the
  reference's seconds next to it; ``wall_rel`` is the mean of those ratios
  weighted by the reference's median seconds per operation.  A burst of load
  from neighbours mostly hits both sides of a pair alike, so pairing cancels
  most of it (ratios of summed medians spread four times as much).  Below 1
  means faster than indtopo 0.1.0;
- ``setup_s``: set-up time: from the first line of this script through
  ``import indtopo`` to every input of the workload built.  Fresh
  interpreters set up indtopo and the reference copy in turn, before and
  after the batch; the median over those pairs of indtopo's set-up divided
  by the reference's, times ``REFERENCE_SETUP_S`` (the reference's set-up
  seconds on a quiet host), is reported, for the same reason as below;
- ``peak_rss_mb``: the peak resident set size of the indtopo process.

Why relative to a reference: on a shared two-core virtual machine the same
batch ran up to 1.7x slower, and the same set-up up to 1.5x slower, for
minutes at a time, when neighbours were busy.  Raw seconds moved by that
much between two sets of runs; no arithmetic or dict loop tracked the
slowdown, but the same work on a frozen copy of the code does.  The raw
seconds are printed with the facts.

With ``--trace 1`` the batch runs twice untraced (a warm-up, then timed) and
once traced, with no reference, and the last line holds the per-layer metrics of ``tracer.py``
plus ``trace.overhead_s``, the traced minus the untraced batch seconds.

The line before the last carries facts that gate nothing: the seed, the
repetition count and times, the raw batch seconds of both sides, the
instance count, the ``src/indtopo`` line count, the Python version, the
processor count and ``failed_frac``.  ``failed`` counts indtopo operations
whose output disagreed with the expectation or raised; ``attempted`` counts
every indtopo operation run.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "indtopo")
REFERENCE = os.path.join(HERE, "reference")

SETUP_SAMPLES = 5        # set-ups of each side timed before and after the batch
# The reference copy's set-up seconds per workload on a quiet host (two-core
# Xeon virtual machine, Python 3.11.7, no bytecode cache); only a unit scale.
REFERENCE_SETUP_S = {"table1": 0.065, "integer": 0.065, "certify": 0.066, "verify_mix": 0.29}
SETUP_TIMEOUT_S = 60
EXIT_BROKEN = 2          # the benchmark could not run; no result is printed

WORKLOAD_NAMES = ("table1", "integer", "certify", "verify_mix")


def _fail(message: str):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(EXIT_BROKEN)


def _import(reference: bool):
    """(package, workloads): indtopo from this checkout's src/, or the reference copy."""
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        _fail(f"no indtopo sources under {SRC}")
    sys.path.insert(0, HERE)
    if reference:
        sys.path.insert(0, REFERENCE)
        pkg = importlib.import_module("indtopo_ref")
    else:
        sys.path.insert(0, SRC)
        pkg = importlib.import_module("indtopo")
        if os.path.dirname(os.path.abspath(pkg.__file__)) != PACKAGE:
            _fail(f"imported indtopo from {pkg.__file__}, not from {PACKAGE}")
    import workloads
    return pkg, workloads


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=7,
                   help="seed of the suites' random graphs and orders (default 7)")
    p.add_argument("--seconds", type=float, default=15.0,
                   help="time budget for repeating the batch (default 15)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only build the inputs and print the set-up time")
    p.add_argument("--reference", action="store_true",
                   help="use the frozen reference copy instead of indtopo")
    p.add_argument("--serve", action="store_true",
                   help="run ops as told on standard input (the reference worker)")
    return p.parse_args(argv)


def _run_op(op) -> tuple:
    """(seconds, problem or None) of one run of ``op``."""
    t0 = time.perf_counter()
    try:
        problem = op.run()
    except Exception:  # a crash is a failed operation; keep measuring the rest
        problem = traceback.format_exc(limit=3)
    return time.perf_counter() - t0, problem


def _run_batch(ops, times, failures):
    """Run every op once; append each op's seconds to ``times``."""
    for i, op in enumerate(ops):
        seconds, problem = _run_op(op)
        times[i].append(seconds)
        if problem is not None:
            failures.append(f"{op.label}: {problem}")


def _reference_worker(ops) -> int:
    """Serve the parent: read an op index, run that op, answer with its seconds."""
    print("ready", flush=True)
    for line in sys.stdin:
        i = int(line)
        seconds, problem = _run_op(ops[i])
        if problem is not None:
            _fail(f"reference copy failed on {ops[i].label}: {problem}")
        print(seconds, flush=True)
    return 0


class _Reference:
    """The reference worker process; it inherits this process's CPU mask."""

    def __init__(self, args):
        cmd = [sys.executable, os.path.abspath(__file__), "--reference", "--serve",
               "--workload", args.workload, "--seed", str(args.seed)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, bufsize=1, cwd=ROOT)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            _fail("reference worker did not start")

    def run(self, i: int) -> float:
        self.proc.stdin.write(f"{i}\n")
        answer = self.proc.stdout.readline()
        if not answer:
            self.close()
            _fail("reference worker stopped")
        return float(answer)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _setup_seconds(args, pairs: int, warm_up: bool) -> tuple:
    """Set-up seconds of fresh interpreters: (indtopo's, the reference's), taken in turn."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = ([], [])
    for i in range(pairs + warm_up):
        for side, extra in enumerate(([], ["--reference"])):
            try:
                out = subprocess.run(cmd + extra, capture_output=True, text=True,
                                     timeout=SETUP_TIMEOUT_S, cwd=ROOT)
            except subprocess.TimeoutExpired:
                _fail("set-up probe timed out")
            if out.returncode != 0:
                _fail(f"set-up probe failed:\n{out.stderr.strip()}")
            if i or not warm_up:
                seconds = json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]
                samples[side].append(seconds)
    return samples


def _src_lines() -> int:
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _measure(args, ops) -> tuple:
    """Untraced run: repeat the batch, each op beside its reference, while the budget lasts."""
    times = [[] for _ in ops]
    ref_times = [[] for _ in ops]
    failures = []
    rep_s = []
    reference = _Reference(args)
    try:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            for i, op in enumerate(ops):
                # alternate which side goes first, so neither is always warmer
                if i % 2:
                    ref_times[i].append(reference.run(i))
                seconds, problem = _run_op(op)
                times[i].append(seconds)
                if problem is not None:
                    failures.append(f"{op.label}: {problem}")
                if not i % 2:
                    ref_times[i].append(reference.run(i))
            rep_s.append(time.perf_counter() - t0)
            if time.perf_counter() - start + statistics.median(rep_s) > args.seconds:
                break
    finally:
        reference.close()
    wall_s = sum(statistics.median(ts) for ts in times)
    ref_s = sum(statistics.median(ts) for ts in ref_times)
    wall_rel = sum(statistics.median(ref) / ref_s * statistics.median(a / b for a, b in zip(own, ref))
                   for own, ref in zip(times, ref_times))
    metrics = {
        "wall_rel": (wall_rel, "ratio"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    facts = {"wall_s": wall_s, "reference_s": ref_s}
    return metrics, len(ops) * len(rep_s), failures, rep_s, facts


def _measure_traced(args, pkg, workloads, ops) -> tuple:
    """A warm-up batch, one timed untraced batch, then set-up and one batch under the tracer."""
    from tracer import Tracer

    failures = []
    times = [[] for _ in ops]
    _run_batch(ops, times, failures)  # the first batch also grows the heap; not compared
    _run_batch(ops, times, failures)
    untraced_s = sum(ts[1] for ts in times)

    tracer = Tracer()
    tracer.install()
    try:
        traced_ops = workloads.WORKLOADS[args.workload](pkg, args.seed)
        traced_times = [[] for _ in traced_ops]
        _run_batch(traced_ops, traced_times, failures)
    finally:
        tracer.uninstall()
    traced_s = sum(ts[0] for ts in traced_times)

    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics, 2 * len(ops) + len(traced_ops), failures, [untraced_s, traced_s], {}


def main(argv=None) -> int:
    args = _parse_args(argv)
    pkg, workloads = _import(reference=args.reference)
    build = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        build(pkg, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0
    if args.serve:
        return _reference_worker(build(pkg, args.seed))

    if not args.trace:
        # one CPU for every timed process of the run, the reference worker included
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup = None if args.trace else _setup_seconds(args, SETUP_SAMPLES, warm_up=True)
    ops = build(pkg, args.seed)
    if args.trace:
        metrics, attempted, failures, rep_s, extra = _measure_traced(args, pkg, workloads, ops)
    else:
        metrics, attempted, failures, rep_s, extra = _measure(args, ops)
        for side, more in zip(setup, _setup_seconds(args, SETUP_SAMPLES, warm_up=False)):
            side.extend(more)
        own_s, ref_s = statistics.median(setup[0]), statistics.median(setup[1])
        ratio = statistics.median(a / b for a, b in zip(*setup))
        metrics["setup_s"] = (ratio * REFERENCE_SETUP_S[args.workload], "s")
        extra.update(setup_raw_s=own_s, reference_setup_s=ref_s)

    for line in failures[:20]:
        print("FAILED " + line, file=sys.stderr)
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "instances": len(ops),
        "repetitions": len(rep_s),
        "batch_s": [round(s, 4) for s in rep_s],
        **extra,
        "src_indtopo_lines": _src_lines(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "failed_frac": len(failures) / attempted,
    }
    print(json.dumps({"facts": facts}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
