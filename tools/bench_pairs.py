"""Paired runs of the benchmark on two checkouts, a parent and a change.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload integer \\
        --pairs 10 [--seconds 10] [--seed 7]

Each pair runs each checkout's own ``benchmarks/run.py --trace 0`` once, in
a fresh interpreter with that checkout as the working directory; the side
that goes first alternates from pair to pair, so a drift in the host's load
falls on both sides alike.  For every end-to-end metric that the change's
``BENCHMARK.json`` declares, it prints each pair's values, both sides'
medians and quartiles, how many pairs the change won, and whether a claimed
gain would hold: the change better in at least 90 % of the pairs, its
median better than the parent's by more than the parent's interquartile
range, and its largest ``failed_frac`` no higher than the parent's.
``--seconds`` defaults to the change's ``BENCHMARK.json`` ``run_seconds``.

Standard library only; it writes nothing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WIN_SHARE = 0.9


def summarize(parent, change, better="lower", failed=(0.0, 0.0)) -> dict:
    """Paired samples of one metric, pair i being (parent[i], change[i]):
    each side's median and (lower, upper) quartiles, the pairs the change won
    (strictly better), the median gain (positive when the change is better),
    and whether the claim rule holds: wins >= 90 % of the pairs, a median
    gain larger than the parent's interquartile range, and the change's
    failed share, ``failed[1]``, no higher than the parent's, ``failed[0]``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    out = {"pairs": len(parent), "wins": wins}
    for side, xs in (("parent", parent), ("change", change)):
        q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
        out[side] = {"median": statistics.median(xs), "quartiles": (q1, q3)}
    gain = sign * (out["parent"]["median"] - out["change"]["median"])
    iqr = out["parent"]["quartiles"][1] - out["parent"]["quartiles"][0]
    out.update(gain=gain, parent_iqr=iqr,
               claim=wins >= WIN_SHARE * len(parent) and gain > iqr
               and failed[1] <= failed[0])
    return out


def run_once(checkout, workload, seconds, seed):
    """One benchmark run in a checkout: ({metric: value}, failed_frac)."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seconds",
         str(seconds), "--seed", str(seed), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        raise SystemExit(f"{checkout}: benchmark exited {proc.returncode}\n{proc.stderr}")
    facts, result = json.loads(lines[-2])["facts"], json.loads(lines[-1])
    return {k: m["value"] for k, m in result["metrics"].items()}, facts["failed_frac"]


def declared(checkout):
    """The checkout's BENCHMARK.json: its run_seconds and the (name, better)
    of each end-to-end metric it declares."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["run_seconds"], [(m["name"], m["better"]) for m in bench["end_to_end"]]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float)
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)
    run_seconds, metrics_declared = declared(args.change)
    if args.seconds is None:
        args.seconds = run_seconds
    runs = {"parent": [], "change": []}
    failed = {"parent": 0.0, "change": 0.0}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            metrics, frac = run_once(getattr(args, side), args.workload, args.seconds,
                                     args.seed)
            runs[side].append(metrics)
            failed[side] = max(failed[side], frac)
        print(f"pair {i + 1} ({order[0]} first): " + "  ".join(
            f"{k} {runs['parent'][-1][k]:.5g} -> {runs['change'][-1][k]:.5g}"
            for k in sorted(runs["change"][-1])), flush=True)
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"--seconds {args.seconds:g}; largest failed_frac parent {failed['parent']}, "
          f"change {failed['change']}")
    for name, better in metrics_declared:
        s = summarize([m[name] for m in runs["parent"]], [m[name] for m in runs["change"]],
                      better, (failed["parent"], failed["change"]))
        print(f"{name} ({better} is better): parent median {s['parent']['median']:.5g} "
              "(quartiles %.5g-%.5g), " % s["parent"]["quartiles"]
              + f"change median {s['change']['median']:.5g} "
              "(quartiles %.5g-%.5g); " % s["change"]["quartiles"]
              + f"change better in {s['wins']}/{s['pairs']}, gain {s['gain']:.5g} "
              f"vs parent IQR {s['parent_iqr']:.5g}; claim "
              + ("holds" if s["claim"] else "does not hold"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
