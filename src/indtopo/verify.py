"""Verification harness: build each graph family, compare closed-form
predictions against computed homology, certify the product Morse matching,
and collect everything into machine-readable reports.

Each suite is a named batch of instances.  A suite builder turns options into
jobs; jobs are picklable (kind, args, kwargs) triples so a worker pool can
chew through instances; report assembly is single-threaded and deterministic.
"""

import itertools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from random import Random

from . import graphs as gr
from .complexes import FaceBudgetError, faces_in_window, independence_complex
from .families import FAMILIES, FamilySpec, build_graph, random_graph
from .homology import betti_reduced, betti_window
from .homotopy import HomotopyType, Stuck, predict, reduce as reduce_graph
from .morse import element_matching, product_matching_order, verify_acyclic

FULL_RANGE_VERTEX_LIMIT = 20

# the published third Betti numbers for K_2 x K_3 x K_n, n = 2..6
TABLE1_ROWS = {2: 4, 3: 14, 4: 30, 5: 52, 6: 80}
TABLE1_WINDOW = (2, 4)


@dataclass
class InstanceRecord:
    """Outcome of one instance check inside a suite."""

    instance: str
    coefficients: str
    predicted: str | None = None   # rendered homotopy type
    predicted_betti: dict | None = None
    computed_betti: dict = field(default_factory=dict)
    window: tuple | None = None    # None = full range
    match: bool = False
    conjectural: bool = False
    seconds: float = 0.0
    faces: int = 0
    torsion: dict = field(default_factory=dict)
    note: str = ""
    # a face or step budget ran out; chooses exit code 2, and is left out of
    # the JSON (the note says so in words)
    budget_exhausted: bool = False

    def to_json_dict(self, deterministic: bool = False) -> dict:
        d = {
            "instance": self.instance,
            "predicted": self.predicted,
            "predicted_betti": _betti_json(self.predicted_betti),
            "computed_betti": _betti_json(self.computed_betti),
            "coefficients": self.coefficients,
            "window": list(self.window) if self.window else None,
            "match": self.match,
            "conjectural": self.conjectural,
            "faces": self.faces,
            "torsion": {str(k): list(v) for k, v in sorted(self.torsion.items())},
            "note": self.note,
        }
        if not deterministic:
            d["seconds"] = round(self.seconds, 3)
        return d


def _betti_json(b):
    if b is None:
        return None
    return {str(k): v for k, v in sorted(b.items())}


@dataclass
class SuiteResult:
    name: str
    criterion: int
    records: list

    @property
    def passed(self) -> int:
        return sum(1 for r in self.records if r.match)

    @property
    def gating_failures(self) -> int:
        return sum(1 for r in self.records if not r.match and not r.conjectural)

    def to_json_dict(self, deterministic: bool = False) -> dict:
        return {
            "suite": self.name,
            "criterion": self.criterion,
            "records": [r.to_json_dict(deterministic) for r in self.records],
            "summary": {
                "total": len(self.records),
                "passed": self.passed,
                "failed": len(self.records) - self.passed,
                "gating_failures": self.gating_failures,
            },
        }


@dataclass
class VerificationReport:
    suites: list
    seed: int
    strict_conjectures: bool = False

    def _gating(self) -> list:
        """Failed records that gate: all but conjectural ones, unless strict."""
        return [r for s in self.suites for r in s.records
                if not r.match and (self.strict_conjectures or not r.conjectural)]

    @property
    def ok(self) -> bool:
        return not self._gating()

    @property
    def resource_trouble(self) -> bool:
        """True when there are gating failures and every one of them hit a budget."""
        gating = self._gating()
        return bool(gating) and all(r.budget_exhausted for r in gating)

    def to_json_dict(self, deterministic: bool = False) -> dict:
        total = sum(len(s.records) for s in self.suites)
        passed = sum(s.passed for s in self.suites)
        return {
            "seed": self.seed,
            "suites": [s.to_json_dict(deterministic) for s in self.suites],
            "summary": {
                "total": total,
                "passed": passed,
                "failed": total - passed,
                "ok": self.ok,
            },
        }

    def csv_rows(self):
        rows = ["suite,instance,predicted,computed,coefficients,window,match,conjectural"]
        for s in self.suites:
            for r in s.records:
                window = f"{r.window[0]}..{r.window[1]}" if r.window else "full"
                computed = ";".join(f"{d}:{v}" for d, v in sorted(r.computed_betti.items()))
                rows.append(",".join([
                    s.name, r.instance, str(r.predicted), computed or "0",
                    r.coefficients, window, str(r.match), str(r.conjectural),
                ]))
        return rows

    def render_table(self) -> str:
        lines = []
        for s in self.suites:
            lines.append(f"suite {s.name} (criterion {s.criterion}): "
                         f"{s.passed}/{len(s.records)} passed")
            for r in s.records:
                window = f" window {r.window[0]}..{r.window[1]}" if r.window else ""
                status = "ok" if r.match else "FAIL"
                if r.conjectural:
                    status += " (conjectural)"
                computed = ", ".join(f"b{d}={v}" for d, v in sorted(r.computed_betti.items()))
                line = (f"  [{status}] {r.instance}: predicted {r.predicted}, "
                        f"computed {computed or 'all zero'}{window}")
                if r.note:
                    line += f" ({r.note})"
                lines.append(line)
        lines.append("result: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


# -- shared checkers -------------------------------------------------------------

@contextmanager
def _record(**fields):
    """The record of one check, made from the fields known before any work and
    filled in by the ``with`` block.  A face budget that runs out in the block
    becomes the record's failure, noted in the budget's words; either way the
    record is timed."""
    rec = InstanceRecord(**fields)
    t0 = time.perf_counter()
    try:
        yield rec
    except FaceBudgetError as e:
        rec.note = str(e)
        rec.budget_exhausted = True
    finally:
        rec.seconds = time.perf_counter() - t0


def _auto_window(pred: HomotopyType, G) -> tuple | None:
    """Full range for small graphs and contractible claims, else predicted dim +/- 1."""
    if G.vertex_count <= FULL_RANGE_VERTEX_LIMIT or pred.is_contractible:
        return None
    dims = [d for d, _ in pred.spheres]
    return (max(0, min(dims) - 1), max(dims) + 1)


def _check_betti(instance: str, expected: HomotopyType, G, coefficients: str,
                 window: tuple | None, face_budget: int | None,
                 conjectural: bool) -> InstanceRecord:
    """Compare the Betti numbers of Ind(G), full-range or in a window, with a homotopy type."""
    if window is not None and coefficients != "z2":
        raise ValueError("windowed homology is mod-2 only")
    want = expected.betti()
    with _record(instance=instance, coefficients=coefficients, predicted=expected.render(),
                 predicted_betti=want, window=None if window is None else tuple(window),
                 conjectural=conjectural) as rec:
        if window is None:
            K = independence_complex(G, face_budget=face_budget)
            rec.faces = K.total_faces
            bt = betti_reduced(K, coefficients)
            rec.computed_betti = bt.nonzero()
        else:
            skeleton = faces_in_window(G, *window, face_budget=face_budget)
            rec.faces = sum(skeleton.face_count(d) for d in range(window[0] - 1, window[1] + 2))
            bt = betti_window(G, *window, faces=skeleton)
            rec.computed_betti = dict(bt.betti)
        rec.torsion = dict(bt.torsion)
        rec.match = bt.matches(want) and not rec.torsion
        if rec.torsion:
            rec.note = "unexpected torsion"
    return rec


def check_family_instance(family: str, params: tuple, coefficients: str = "z2",
                          window: tuple | None = "auto",
                          face_budget: int | None = None) -> InstanceRecord:
    """Compare the closed-form prediction with computed homology for one instance.

    Windows are mod-2 only: "auto" means full range for integer coefficients.
    """
    spec = FamilySpec(family, params)
    pr = predict(spec)
    G = build_graph(spec)
    if window == "auto":
        window = _auto_window(pr.homotopy, G) if coefficients == "z2" else None
    return _check_betti(spec.describe(), pr.homotopy, G, coefficients, window,
                        face_budget, pr.conjectural)


def check_family_int(family: str, params: tuple,
                     face_budget: int | None = None) -> InstanceRecord:
    """Full-range integer homology check: Betti vector and torsion-freeness."""
    return check_family_instance(family, params, coefficients="int",
                                 window=None, face_budget=face_budget)


def check_table1_row(n: int, kind: str = "window",
                     face_budget: int | None = None) -> InstanceRecord:
    """One published-table row: third Betti number of Ind(K_2 x K_3 x K_n).

    kind "window": mod-2 in the fixed window (2, 4), expecting (0, row, 0).
    kind "int": full-range integer homology, expecting only b3 = row, no torsion.
    """
    _published_ns([n])
    G = build_graph(FamilySpec("conjecture_k2k3kn", (n,)))
    window, coefficients = (TABLE1_WINDOW, "z2") if kind == "window" else (None, "int")
    rec = _check_betti(f"table1 n={n} ({kind})", HomotopyType.sphere(3, TABLE1_ROWS[n]),
                       G, coefficients, window, face_budget, False)
    if not rec.note:
        rec.note = "published row reproduced" if rec.match else "mismatch with published row"
    return rec


def check_morse_product(m: int, n: int,
                        face_budget: int | None = None) -> InstanceRecord:
    """Certify the ordered matching on Ind(K_m x K_n) against the closed form."""
    with _record(instance=f"morse product {m} {n}", coefficients="critical-cells") as rec:
        spec = FamilySpec("product", (m, n))
        expected = predict(spec).homotopy
        K = independence_complex(build_graph(spec), face_budget=face_budget)
        # the closed form is left out of a record whose enumeration ran out
        rec.predicted, rec.predicted_betti = expected.render(), expected.betti()
        rec.faces = K.total_faces
        matching = element_matching(K, product_matching_order(m, n))
        acyclic, witness = verify_acyclic(matching, K)
        expected_cells = {1 << K.index_of((i, 1)) | 1 << K.index_of((i, j))
                          for i in range(2, m + 1) for j in range(2, n + 1)}
        got_cells = set(matching.critical_masks)
        problems = []
        if not acyclic:
            problems.append(f"cycle: {witness}")
        if not matching.empty_face_matched:
            problems.append("empty face unmatched")
        if got_cells != expected_cells:
            problems.append(f"critical set differs ({len(got_cells)} cells)")
        rec.computed_betti = matching.critical_counts()
        rec.match = not problems
        rec.note = "; ".join(problems) or "acyclic, empty face matched, critical set exact"
    return rec


def check_gadget_reduce(n: int, t: int) -> InstanceRecord:
    """The reduction engine must certify contractibility at t = 0 mod 3."""
    with _record(instance=f"reduce gadget {n} {t}", predicted="point", predicted_betti={},
                 coefficients="reduction") as rec:
        result, trace = reduce_graph(build_graph(FamilySpec("gadget", (n, t))))
        rec.match = isinstance(result, HomotopyType) and result.is_contractible
        rec.computed_betti = {} if rec.match else {"result": str(result)}
        stuck = isinstance(result, Stuck)
        rec.note = f"stuck: {result.reason}" if stuck else f"{len(trace)} top-level steps"
        rec.budget_exhausted = stuck and result.budget_exhausted
    return rec


def check_suspension_shift(kind: str, tag: str, G, H,
                           face_budget: int | None = None) -> InstanceRecord:
    """Betti of Ind(H) must be the +1 shift of Betti of Ind(G)."""
    with _record(instance=f"{kind} {tag}", coefficients="z2") as rec:
        base = betti_reduced(independence_complex(G, face_budget=face_budget)).nonzero()
        lifted = betti_reduced(independence_complex(H, face_budget=face_budget)).nonzero()
        rec.predicted = f"shift of {base or 'all zero'}"
        rec.predicted_betti = {d + 1: v for d, v in base.items()}
        rec.computed_betti = lifted
        rec.match = lifted == rec.predicted_betti
        rec.note = f"{G.vertex_count}->{H.vertex_count} vertices"
    return rec


def check_morse_homology_batch(n: int, graphs_orders: list,
                               face_budget: int | None = None) -> InstanceRecord:
    """Random-order matchings on a batch of graphs: acyclicity, weak Morse
    inequalities against mod-2 Betti, and the Euler alternating sum."""
    with _record(instance=f"morse-homology n={n} ({len(graphs_orders)} samples)",
                 coefficients="z2") as rec:
        bad = []
        for idx, (G, order) in enumerate(graphs_orders):
            K = independence_complex(G, face_budget=face_budget)
            matching = element_matching(K, order)
            acyclic, witness = verify_acyclic(matching, K)
            if not acyclic:
                bad.append(f"#{idx}: cycle {witness}")
                continue
            counts = matching.critical_counts()
            betti = betti_reduced(K).nonzero()
            if any(counts.get(d, 0) < v for d, v in betti.items()):
                bad.append(f"#{idx}: Morse inequality fails ({counts} vs {betti})")
            # counts includes dim -1 when the empty face is critical, so the plain
            # alternating sum is the reduced Euler characteristic (pairs cancel)
            morse_euler = sum(-c if d % 2 else c for d, c in counts.items())
            if morse_euler != K.euler_characteristic_reduced():
                bad.append(f"#{idx}: Euler sum {morse_euler} != chi")
            if len(bad) >= 3:
                break
        rec.match = not bad
        rec.note = "; ".join(bad) or "all acyclic, inequalities and Euler sums hold"
    return rec


# -- job plumbing ----------------------------------------------------------------

_JOB_KINDS = {
    "family": check_family_instance,
    "family_int": check_family_int,
    "table1": check_table1_row,
    "morse_product": check_morse_product,
    "gadget_reduce": check_gadget_reduce,
    "suspension": check_suspension_shift,
    "morse_homology": check_morse_homology_batch,
}


def _run_job(job):
    kind, args, kwargs = job
    return _JOB_KINDS[kind](*args, **kwargs)


def _ints(value, default):
    return list(default if value is None else value)


# -- suite builders ---------------------------------------------------------------
# Each builder returns a list of jobs (kind, args, kwargs).  `opts` carries the
# seed, optional overrides (value lists keyed by family parameter name, and
# count), and face budget.

def _published_ns(ns):
    """The given table-1 n, after checking that each has a published row."""
    for n in ns:
        if n not in TABLE1_ROWS:
            raise ValueError(f"no published table-1 row for n={n}; "
                             f"rows are n = {min(TABLE1_ROWS)}..{max(TABLE1_ROWS)}")
    return ns


def _jobs_table1(opts):
    jobs = []
    for n in _published_ns(_ints(opts.get("n"), TABLE1_ROWS)):
        jobs.append(("table1", (n,), {"kind": "window", "face_budget": opts.get("face_budget")}))
        if n <= 3:
            jobs.append(("table1", (n,), {"kind": "int", "face_budget": opts.get("face_budget")}))
    return jobs


def _grid(opts, family, kind="family", **defaults):
    """One ``kind`` job per point of a grid over a family's parameters.

    Each parameter ranges over its override in ``opts``, read under the
    parameter's name, else over its default.  Every FamilySpec is built
    here, so an out-of-domain override is a usage error before any job runs.
    """
    values = [_ints(opts.get(p), defaults.get(p)) for p in FAMILIES[family].params]
    specs = [FamilySpec(family, ps) for ps in itertools.product(*values)]
    return [(kind, (family, s.params), {"face_budget": opts.get("face_budget")})
            for s in specs]


def _jobs_product(opts):
    return _grid(opts, "product", "family_int", m=range(2, 6), n=range(2, 6))


def _jobs_morse(opts):
    return [("morse_product", params, kw)
            for _, (_, params), kw in _grid(opts, "product", m=range(2, 7), n=range(2, 7))]


def _jobs_mycielskian(opts):
    return _grid(opts, "mycielskian", n=(3, 4), r=range(2, 8))


def _jobs_kn_lr(opts):
    return _grid(opts, "kn_lr", n=(2, 3, 4), r=range(0, 7))


def _jobs_gadget(opts):
    jobs = _grid(opts, "gadget", n=(3, 4), t=range(1, 8))
    return jobs + [("gadget_reduce", params, {})
                   for _, (_, params), _ in jobs if params[1] % 3 == 0]


def _find_crossing(G):
    """First (v1,v2,v3,v4) with edges (v1,v2), (v1,v4), (v2,v3), all distinct."""
    adj = gr.adjacency_masks(G)
    for v1, a1 in enumerate(adj):
        for v2 in gr.bits(a1):
            for v4 in gr.bits(a1 & ~(1 << v1 | 1 << v2)):
                for v3 in gr.bits(adj[v2] & ~(1 << v1 | 1 << v2 | 1 << v4)):
                    return tuple(G.vertices[v] for v in (v1, v2, v3, v4))
    return None


def _find_triangle(G):
    adj = gr.adjacency_masks(G)
    for v1, a1 in enumerate(adj):
        for v2 in gr.bits(a1):
            for v3 in gr.bits(a1 & adj[v2] & -(2 << v2)):
                return tuple(G.vertices[v] for v in (v1, v2, v3))
    return None


def _jobs_suspension(opts):
    seed = opts.get("seed", 7)
    count = opts.get("count") or 25
    budget = opts.get("face_budget")
    jobs = []

    rng = Random(seed)
    for k in range(count):
        n = rng.randint(1, 8)
        G = random_graph(n, rng)
        H = gr.generalized_mycielskian(G, 2)
        jobs.append(("suspension", ("mycielskian-2", f"#{k} n={n}", G, H),
                     {"face_budget": budget}))

    for offset, least, find, surgery, kind in (
            (1, 4, _find_crossing, gr.ladder_replace_crossing, "ladder-crossing"),
            (2, 3, _find_triangle, gr.ladder_replace_triangle, "ladder-triangle")):
        rng = Random(seed + offset)
        made = 0
        while made < count:
            n = rng.randint(least, 8)
            G = random_graph(n, rng)
            found = find(G)
            if found is None:
                continue
            jobs.append(("suspension",
                         (kind, f"#{made} n={n} at {found}", G, surgery(G, *found)),
                         {"face_budget": budget}))
            made += 1
    return jobs


def _jobs_cycle_ladder(opts):
    return _grid(opts, "cycle_ladder", n=range(3, 12), i=range(1, 5))


def _jobs_paths_cycles(opts):
    # paths and cycles share --n; cycles start at n = 3
    cycle_ns = [n for n in _ints(opts.get("n"), range(3, 16)) if n >= 3]
    return _grid(opts, "path", n=range(1, 16)) + _grid({**opts, "n": cycle_ns}, "cycle")


def _jobs_morse_homology(opts):
    seed = opts.get("seed", 7)
    cap = opts.get("count") or 5000
    rng = Random(seed)
    jobs = []
    used = 0
    # exhaust all labeled graphs while they fit the cap, then sample
    for n in range(1, 7):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        total = 1 << len(pairs)
        # built lazily, so a sampled graph's draws come before its order's shuffle
        if used + total <= cap * 0.6 or total <= 1024:
            graphs = (gr.Graph(range(1, n + 1), [p for i, p in enumerate(pairs) if mask >> i & 1])
                      for mask in range(total))
        else:
            graphs = (random_graph(n, rng) for _ in range(max(cap - used, 100)))
        batch = []
        for G in graphs:
            order = list(G.vertices)
            rng.shuffle(order)
            batch.append((G, order))
        used += len(batch)
        jobs.append(("morse_homology", (n, batch), {"face_budget": opts.get("face_budget")}))
        if used >= cap:
            break
    return jobs


def _jobs_conjecture(opts):
    return [("table1", (n,), {"kind": "window", "face_budget": opts.get("face_budget")})
            for n in _published_ns(_ints(opts.get("n"), TABLE1_ROWS))]


SUITES = {
    "table1": (1, _jobs_table1, "published third Betti numbers of K_2 x K_3 x K_n"),
    "product": (2, _jobs_product, "integer homology of two-factor products"),
    "morse": (3, _jobs_morse, "ordered matching certificate on products"),
    "mycielskian": (4, _jobs_mycielskian, "Mycielskian tower case split"),
    "kn_lr": (5, _jobs_kn_lr, "K_n x looped-path case split"),
    "gadget": (6, _jobs_gadget, "tower gadget case split and reductions"),
    "suspension": (7, _jobs_suspension, "suspension shifts: Mycielskian level 2 and ladders"),
    "cycle_ladder": (8, _jobs_cycle_ladder, "cycles with ladders case split"),
    "paths_cycles": (9, _jobs_paths_cycles, "path and cycle closed forms"),
    "morse_homology": (10, _jobs_morse_homology, "random matchings vs homology"),
    "conjecture": (11, _jobs_conjecture, "conjectured product formula (non-gating)"),
}


def run_suites(names, seed: int = 7, jobs: int = 1,
               face_budget: int | None = None, overrides: dict | None = None,
               strict_conjectures: bool = False) -> VerificationReport:
    """Run the named suites ("all" for every one) and assemble a report.

    The call's jobs run as one list: through one pool of ``jobs`` worker
    processes (at most one per processor) when ``jobs`` > 1, else in turn.
    """
    names = [names] if isinstance(names, str) else list(names)
    if names == ["all"]:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}; "
                         f"known: {', '.join(SUITES)}")

    opts = dict(overrides or {})
    opts.setdefault("seed", seed)
    opts["face_budget"] = face_budget

    for name, value in (("jobs", jobs), ("count", opts.get("count"))):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    jobs = min(jobs, os.cpu_count() or 1)

    # every job list is built, and so every usage error raised, before any
    # job runs; all the call's jobs then run as one list.  Table-1 rows are the
    # only jobs two suites ask for, so each runs once and may fill two slots.
    todo, slot_of, plan = [], {}, []
    for name in names:
        job_list = SUITES[name][1](opts)
        if not job_list:
            raise ValueError(f"suite {name!r} has no instances for these parameters")
        slots = []
        for job in job_list:
            # a table-1 row is keyed by n and kind; any other job is its own key
            key = (job[1], job[2]["kind"]) if job[0] == "table1" else len(todo)
            if key not in slot_of:
                slot_of[key] = len(todo)
                todo.append(job)
            slots.append(slot_of[key])
        plan.append((name, slots))

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(_run_job, todo))
    else:
        done = [_run_job(j) for j in todo]

    results = []
    for name, slots in plan:
        records = [done[i] for i in slots]
        if name == "conjecture":
            records = [_conjecture_from_table1(todo[i][1][0], done[i]) for i in slots]
        results.append(SuiteResult(name, SUITES[name][0], records))
    return VerificationReport(results, seed, strict_conjectures)


def _conjecture_from_table1(n: int, rec: InstanceRecord) -> InstanceRecord:
    """Re-badge the published-row record of K_2 x K_3 x K_n as conjecture evidence."""
    pred = predict(FamilySpec("conjecture_k2k3kn", (n,))).homotopy
    match = rec.match and all(rec.computed_betti.get(d, 0) == c for d, c in pred.betti().items())
    return replace(rec, instance=f"conjecture_k2k3kn {n}", predicted=pred.render(),
                   predicted_betti=pred.betti(), match=match, conjectural=True,
                   note=rec.note if rec.budget_exhausted
                   else "evidence only; never gates the exit code unless asked")
