"""Span tracing of indtopo's layers from outside the package.

``Tracer.install()`` wraps the public functions listed in ``TRACED`` and
rebinds every name that refers to them in the loaded ``indtopo`` modules,
including functions held in module-level dicts (``verify._JOB_KINDS``) and
names imported under another name (``verify.reduce_graph``).  Each call
becomes a span with a parent link and counts taken from its arguments and
return value.  ``uninstall()`` puts the original functions back.

Spans stay in memory; ``layer_metrics()`` folds them into the per-layer
metrics the benchmark reports.
"""

import statistics
import sys
import time

from indtopo.homotopy import HomotopyType


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_rank(args, kwargs, rank):
    return {"cols": len(_arg(args, kwargs, 0, "columns")), "rank": rank}


def _count_boundary(args, kwargs, b):
    return {"cols": len(b.columns), "nnz": sum(map(len, b.columns))}


def _count_complex(args, kwargs, K):
    return {"faces": K.total_faces}


def _count_window(args, kwargs, fw):
    return {"faces": sum(fw.face_count(d) for d in fw.dims())}


def _count_betti(args, kwargs, table):
    return {"int": _arg(args, kwargs, 1, "coefficients", "z2") == "int"}


def _count_matching(args, kwargs, m):
    return {"pairs": len(m.pairs), "critical": len(m.critical)}


def _count_acyclic(args, kwargs, result):
    return {"faces": _arg(args, kwargs, 1, "K").total_faces}


def _trace_steps(trace) -> int:
    steps = 0
    for step in trace:
        steps += 1
        for branch in step.get("branches", ()):
            steps += _trace_steps(branch)
    return steps


def _count_reduce(args, kwargs, out):
    result, trace = out
    return {"steps": _trace_steps(trace), "solved": isinstance(result, HomotopyType)}


# (module, function, counter) for every traced public function
TRACED = (
    ("graphs", "delete_vertices", None),
    ("families", "build_graph", None),
    ("complexes", "independence_complex", _count_complex),
    ("complexes", "faces_in_window", _count_window),
    ("homology", "boundary_matrix", _count_boundary),
    ("homology", "gf2_columns", None),
    ("homology", "gf2_rank", _count_rank),
    ("homology", "betti_reduced", _count_betti),
    ("homology", "betti_window", None),
    ("homology", "smith_normal_form", None),
    ("morse", "element_matching", _count_matching),
    ("morse", "verify_acyclic", _count_acyclic),
    ("morse", "wedge_conclusion", None),
    ("homotopy", "reduce", _count_reduce),
    ("verify", "check_family_instance", None),
    ("verify", "check_family_int", None),
    ("verify", "check_table1_row", None),
    ("verify", "check_morse_product", None),
    ("verify", "check_gadget_reduce", None),
    ("verify", "check_suspension_shift", None),
    ("verify", "check_morse_homology_batch", None),
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.counts = None


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []       # indices of the spans now running, innermost last
        self._rebound = []    # (namespace dict, key, original) for uninstall

    def _wrap(self, name, fn, counter):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "indtopo" or k.startswith("indtopo."))]
        namespaces = []
        for m in modules:
            ns = vars(m)
            namespaces.append(ns)
            namespaces.extend(v for v in ns.values() if type(v) is dict)
        for mod, fname, counter in TRACED:
            original = getattr(sys.modules["indtopo." + mod], fname)
            wrapped = self._wrap(f"{mod}.{fname}", original, counter)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        ns[key] = wrapped
                        self._rebound.append((ns, key, original))

    def uninstall(self):
        for ns, key, original in reversed(self._rebound):
            ns[key] = original
        self._rebound.clear()

    def layer_metrics(self) -> dict:
        """Per-layer totals: self times, call counts and counted work."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        boundary_child_s = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_s[s.parent] += s.end - s.start
                if s.name == "homology.boundary_matrix":
                    boundary_child_s[s.parent] += s.end - s.start

        total_s, calls, counts = {}, {}, {}
        reduce_self_s = int_elim_s = verify_self_s = 0.0
        int_calls = 0
        instance_s = []
        for i, s in enumerate(spans):
            dur = s.end - s.start
            total_s[s.name] = total_s.get(s.name, 0.0) + dur
            calls[s.name] = calls.get(s.name, 0) + 1
            for key, v in (s.counts or {}).items():
                k = (s.name, key)
                counts[k] = counts.get(k, 0) + v
            if s.name == "homotopy.reduce":
                reduce_self_s += dur - child_s[i]
            elif s.name == "homology.betti_reduced" and s.counts and s.counts["int"]:
                int_calls += 1
                int_elim_s += dur - boundary_child_s[i]
            elif s.name.startswith("verify."):
                verify_self_s += dur - child_s[i]
                if s.parent < 0 or not spans[s.parent].name.startswith("verify."):
                    instance_s.append(dur)

        def t(name):
            return total_s.get(name, 0.0)

        def c(name):
            return calls.get(name, 0)

        def n(name, key):
            return counts.get((name, key), 0)

        def ratio(a, b):
            return a / b if b else 0.0

        def pct(values, q):
            if not values:
                return 0.0
            if len(values) == 1:
                return values[0]
            return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

        gf2, bnd, match, acyc = ("homology.gf2_rank", "homology.boundary_matrix",
                                 "morse.element_matching", "morse.verify_acyclic")
        enum = ("complexes.independence_complex", "complexes.faces_in_window")
        return {
            "homology.gf2_rank_s": (t(gf2), "s"),
            "homology.gf2_rank_calls": (c(gf2), "count"),
            "homology.gf2_rank_cols": (n(gf2, "cols"), "count"),
            "homology.gf2_rank_yield": (ratio(n(gf2, "rank"), n(gf2, "cols")), "ratio"),
            "homology.boundary_s": (t(bnd), "s"),
            "homology.boundary_cols": (n(bnd, "cols"), "count"),
            "homology.boundary_nnz": (n(bnd, "nnz"), "count"),
            "homology.gf2_pack_s": (t("homology.gf2_columns"), "s"),
            "homology.int_elim_s": (int_elim_s, "s"),
            "homology.int_calls": (int_calls, "count"),
            "homology.smith_calls": (c("homology.smith_normal_form"), "count"),
            "complexes.enumerate_s": (sum(t(e) for e in enum), "s"),
            "complexes.enumerate_calls": (sum(c(e) for e in enum), "count"),
            "complexes.faces": (sum(n(e, "faces") for e in enum), "count"),
            "morse.match_s": (t(match), "s"),
            "morse.match_calls": (c(match), "count"),
            "morse.pairs": (n(match, "pairs"), "count"),
            "morse.critical": (n(match, "critical"), "count"),
            "morse.acyclic_s": (t(acyc), "s"),
            "morse.acyclic_calls": (c(acyc), "count"),
            "morse.acyclic_faces": (n(acyc, "faces"), "count"),
            "homotopy.reduce_s": (reduce_self_s, "s"),
            "homotopy.reduce_calls": (c("homotopy.reduce"), "count"),
            "homotopy.reduce_steps": (n("homotopy.reduce", "steps"), "count"),
            "homotopy.reduce_solved_frac": (
                ratio(n("homotopy.reduce", "solved"), c("homotopy.reduce")), "ratio"),
            "graphs.delete_vertices_s": (t("graphs.delete_vertices"), "s"),
            "graphs.delete_vertices_calls": (c("graphs.delete_vertices"), "count"),
            "families.build_graph_s": (t("families.build_graph"), "s"),
            "families.build_graph_calls": (c("families.build_graph"), "count"),
            "verify.self_s": (verify_self_s, "s"),
            "verify.instances": (len(instance_s), "count"),
            "verify.instance_p50_s": (pct(instance_s, 50), "s"),
            "verify.instance_p95_s": (pct(instance_s, 95), "s"),
        }
