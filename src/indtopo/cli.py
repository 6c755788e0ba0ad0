"""Command line front end.

Subcommands: gen, betti, morse, reduce, verify.  Exit codes: 0 success/pass,
1 mismatch, 2 resource guard tripped, 3 usage error.  The face guard of
betti, morse and verify can be set with --budget-faces or the
INDTOPO_FACE_BUDGET environment variable; reduce has its own step --budget.
"""

import argparse
import json
import os
import sys
from datetime import datetime, timezone

from . import graphs as gr
from .complexes import FaceBudgetError, independence_complex
from .families import FAMILIES, FamilySpec, build_graph
from .homology import graph_betti
from .homotopy import Stuck, reduce as reduce_graph
from .morse import _wedge_from_critical, element_matching, verify_acyclic
from .verify import SUITES, run_suites

EXIT_PASS = 0
EXIT_MISMATCH = 1
EXIT_RESOURCE = 2
EXIT_USAGE = 3

ENV_FACE_BUDGET = "INDTOPO_FACE_BUDGET"

# verify's range overrides: one flag per family parameter name
GRID_FLAGS = tuple(dict.fromkeys(p for fam in FAMILIES.values() for p in fam.params))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route that to our exit code 3
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="indtopo",
                     description="independence complexes: generation, homology, "
                                 "Morse matchings, reductions, verification")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("json", "csv", "table"), with_budget=True,
                   with_homology=False):
        p.add_argument("--format", choices=formats, default="json",
                       help="output format (default json)")
        if with_budget:
            p.add_argument("--budget-faces", type=int, default=None,
                           help=f"face-count guard (default {ENV_FACE_BUDGET} or library default)")
        if with_homology:
            p.add_argument("--window", nargs=2, type=int, metavar=("LO", "HI"),
                           help="restrict homology to dimensions LO..HI")
            p.add_argument("--coeff", choices=("z2", "int"), default="z2",
                           help="coefficient ring (default z2)")

    def add_spec(p):
        p.add_argument("family", nargs="?", help="family name: " + ", ".join(FAMILIES))
        p.add_argument("params", nargs="*", type=int, help="integer family parameters")
        p.add_argument("--file", help="read a graph from a .json or .edges file instead")

    p_gen = sub.add_parser("gen", help="write a family instance as a graph file")
    add_spec(p_gen)
    add_common(p_gen, with_budget=False)
    p_gen.add_argument("--output", help="output path (.json or .edges; default stdout)")

    p_betti = sub.add_parser("betti", help="reduced Betti numbers of the independence complex")
    add_spec(p_betti)
    add_common(p_betti, with_homology=True)

    p_morse = sub.add_parser("morse", help="ordered element matching report")
    add_spec(p_morse)
    add_common(p_morse, ("json", "table"))
    p_morse.add_argument("--order", help="comma-separated vertex labels to sweep, "
                                         "e.g. \"(1,1),(1,2),(2,1)\"")
    p_morse.add_argument("--full", action="store_true",
                         help="include the full pair list in json output")

    p_reduce = sub.add_parser("reduce", help="drive homotopy-preserving reductions")
    add_spec(p_reduce)
    add_common(p_reduce, ("json", "table"), with_budget=False)
    p_reduce.add_argument("--budget", type=int, default=10_000,
                          help="maximum lemma applications (default 10000)")

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("suites", nargs="+",
                          help="suite names or 'all': " + ", ".join(SUITES))
    add_common(p_verify)
    p_verify.add_argument("--deterministic", action="store_true",
                          help="omit timestamps and timings from output")
    p_verify.add_argument("--seed", type=int, default=7, help="RNG seed (default 7)")
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="worker processes for suite instances "
                               "(capped at the processor count)")
    p_verify.add_argument("--count", type=int, default=None,
                          help="sample count override for randomized suites")
    p_verify.add_argument("--strict-conjectures", action="store_true",
                          help="let conjectural mismatches affect the exit code")
    for flag in GRID_FLAGS:
        p_verify.add_argument(f"--{flag}", default=None, metavar="RANGE",
                              help=f"override the {flag} values, e.g. 3 or 2..7 or 2,4,6")
    return parser


def _parse_range(flag: str, text: str):
    out = []
    try:
        for part in text.split(","):
            part = part.strip()
            if ".." in part:
                lo, hi = part.split("..", 1)
                out.extend(range(int(lo), int(hi) + 1))
            else:
                out.append(int(part))
    except ValueError:
        raise _UsageError(f"--{flag} takes integers, ranges LO..HI or a comma list "
                          f"of them, got {text!r}") from None
    return out


def _face_budget(args) -> int | None:
    budget = args.budget_faces
    if budget is None and (raw := os.environ.get(ENV_FACE_BUDGET)):
        try:
            budget = int(raw)
        except ValueError:
            raise _UsageError(f"{ENV_FACE_BUDGET} must be an integer, got {raw!r}") from None
    if budget is not None and budget < 0:
        raise _UsageError(f"face budget must be at least 0, got {budget}")
    return budget


def _instance_from_args(args):
    """The instance name, the graph, and the FamilySpec (None for a --file graph)."""
    if args.file:
        if args.family or args.params:
            raise _UsageError("give either a family spec or --file, not both")
        return f"custom-file {args.file}", gr.load_graph(args.file), None
    if not args.family:
        raise _UsageError("a family name (with parameters) or --file is required")
    try:
        spec = FamilySpec(args.family, tuple(args.params))
    except ValueError as e:
        raise _UsageError(str(e))
    return spec.describe(), build_graph(spec), spec


def _emit(text: str):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# -- subcommand bodies ------------------------------------------------------------

def _cmd_gen(args) -> int:
    _, G, _ = _instance_from_args(args)
    if args.output:
        gr.save_graph(G, args.output)
        _emit(f"wrote {G.vertex_count} vertices, {G.edge_count} edges to {args.output}")
    elif args.format == "json":
        _emit(_dump_json(gr.graph_to_json_dict(G)))
    else:
        gr.write_edgelist(G, sys.stdout)
    return EXIT_PASS


def _cmd_betti(args) -> int:
    name, G, _ = _instance_from_args(args)
    table = graph_betti(G, args.coeff, _face_budget(args),
                        tuple(args.window) if args.window else None)
    if args.format == "json":
        out = table.to_json_dict()
        out["instance"] = name
        _emit(_dump_json(out))
    elif args.format == "csv":
        _emit("\n".join(table.csv_rows()))
    else:
        _emit(f"{name}: {table.render()}")
    return EXIT_PASS


def _default_order(spec: FamilySpec | None, G):
    """The family's Morse sweep order, else (a file, or no order) vertex order."""
    morse_order = spec and FAMILIES[spec.family].morse_order
    return morse_order(*spec.params) if morse_order else list(G.vertices)


def _cmd_morse(args) -> int:
    name, G, spec = _instance_from_args(args)
    K = independence_complex(G, face_budget=_face_budget(args))
    if args.order:
        order = gr.parse_labels(args.order)
    else:
        order = _default_order(spec, G)
    matching = element_matching(K, order)
    acyclic, witness = verify_acyclic(matching, K)
    wedge = _wedge_from_critical(matching) if acyclic else None
    counts = matching.critical_counts()
    if args.format == "json":
        out = {
            "instance": name,
            "order": [gr.render_label(v) for v in matching.order],
            "pair_count": matching.pair_count,
            "critical_by_dimension": {str(d): c for d, c in sorted(counts.items())},
            "empty_face_matched": matching.empty_face_matched,
            "acyclic": acyclic,
            "wedge": wedge.render() if wedge is not None else None,
        }
        if not acyclic:
            out["cycle_witness"] = [[gr.render_label(v) for v in f] for f in witness]
        if args.full:
            out["matching"] = matching.to_json_dict()
        _emit(_dump_json(out))
    else:
        hist = ", ".join(f"c{d}={c}" for d, c in sorted(counts.items())) or "none"
        lines = [f"instance: {name}",
                 f"critical cells: {hist}",
                 f"empty face matched: {matching.empty_face_matched}",
                 f"acyclic: {acyclic}"]
        if wedge is not None:
            lines.append(f"wedge conclusion: {wedge.render()}")
        _emit("\n".join(lines))
    return EXIT_PASS if acyclic else EXIT_MISMATCH


def _cmd_reduce(args) -> int:
    if args.budget < 0:
        raise _UsageError(f"step budget must be at least 0, got {args.budget}")
    name, G, _ = _instance_from_args(args)
    result, trace = reduce_graph(G, budget=args.budget)
    stuck = isinstance(result, Stuck)
    if args.format == "json":
        out = {
            "instance": name,
            "result": result.render() if not stuck else None,
            "stuck": None if not stuck else {
                "reason": result.reason,
                "vertices": [gr.render_label(v) for v in result.graph.vertices],
                "edges": [[gr.render_label(u), gr.render_label(v)]
                          for u, v in result.graph.edges],
            },
            "steps": len(trace),
            "trace": trace,
        }
        try:
            text = _dump_json(out)
        except RecursionError:      # each split nests the trace three containers deeper
            print("resource guard: the trace nests too deep to write as JSON; "
                  "--format table prints the result", file=sys.stderr)
            return EXIT_RESOURCE
        _emit(text)
    else:
        if stuck:
            _emit(f"{name}: stuck ({result.reason}) with "
                  f"{result.graph.vertex_count} vertices left after {len(trace)} steps")
        else:
            _emit(f"{name}: {result.render()} ({len(trace)} steps)")
    if stuck and result.budget_exhausted:
        return EXIT_RESOURCE
    return EXIT_PASS


def _cmd_verify(args) -> int:
    overrides = {}
    for flag in GRID_FLAGS:
        raw = getattr(args, flag)
        if raw is not None:
            overrides[flag] = _parse_range(flag, raw)
    if args.count is not None:
        overrides["count"] = args.count
    try:
        report = run_suites(args.suites, seed=args.seed, jobs=args.jobs,
                            face_budget=_face_budget(args), overrides=overrides,
                            strict_conjectures=args.strict_conjectures)
    except ValueError as e:
        raise _UsageError(str(e))
    if args.format == "json":
        out = report.to_json_dict(deterministic=args.deterministic)
        if not args.deterministic:
            out["generated_at"] = datetime.now(timezone.utc).isoformat()
        _emit(_dump_json(out))
    elif args.format == "csv":
        _emit("\n".join(report.csv_rows()))
    else:
        _emit(report.render_table())
    if report.ok:
        return EXIT_PASS
    return EXIT_RESOURCE if report.resource_trouble else EXIT_MISMATCH


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "gen": _cmd_gen,
            "betti": _cmd_betti,
            "morse": _cmd_morse,
            "reduce": _cmd_reduce,
            "verify": _cmd_verify,
        }[args.command]
        return handler(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except FaceBudgetError as e:
        print(f"resource guard: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
