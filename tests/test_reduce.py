"""Homotopy-preserving graph reductions and the lemma driver."""

import itertools
import random
import sys

import pytest

import oracles
from indtopo import graphs as gr
from indtopo import homotopy, verify
from indtopo.complexes import independence_complex
from indtopo.families import FamilySpec, build_graph
from indtopo.homology import betti_reduced
from indtopo.homotopy import (
    HomotopyType,
    Stuck,
    _cone_apex,
    _cone_edge,
    _dominated_pair,
    _fold_resume,
    edge_add_if_cone,
    fold_reduce,
    reduce,
    simplicial_split,
)


def rand_graph(rng, n, p=0.5):
    verts = list(range(1, n + 1))
    return gr.Graph(verts, [e for e in itertools.combinations(verts, 2)
                            if rng.random() < p])


def betti_of(G):
    return betti_reduced(independence_complex(G)).nonzero()


# -- folds ---------------------------------------------------------------------

def test_fold_reduce_complete_graph_is_a_no_op():
    # no vertex of a clique has its open neighborhood inside another's
    g, trace = fold_reduce(gr.complete(4))
    assert g == gr.complete(4) and trace == []


def test_fold_reduce_k3_l1_collapses_to_one_vertex():
    G = gr.categorical_product(gr.complete(3), gr.looped_path(1))
    g, trace = fold_reduce(G)
    # level 0 dominates level 1 pointwise; the edgeless leftovers then
    # dominate each other down to a single vertex
    assert g.vertex_count == 1 and g.edge_count == 0
    assert trace[0] == {"rule": "fold", "kept": "(1,1)", "deleted": "(1,0)"}
    assert len(trace) == 5


def test_fold_reduce_drops_looped_vertices_first():
    G = gr.Graph([1, 2, 3], [(1, 2), (2, 3)], loops=[2])
    g, trace = fold_reduce(G)
    assert trace[0] == {"rule": "drop-looped", "vertex": "2"}
    assert g.vertex_count == 1


def test_fold_preserves_betti_numbers():
    rng = random.Random(61)
    for _ in range(100):
        G = rand_graph(rng, rng.randint(1, 8), p=rng.choice([0.3, 0.6]))
        g, _ = fold_reduce(G)
        assert betti_of(g) == betti_of(G), G.edges


def test_link_is_cone_iff_vertex_is_fold_deletable():
    # lk(v) = Ind(G - N[v]); the fold is the graph form of "delete v when lk(v) cones"
    rng = random.Random(73)
    fired = 0
    for _ in range(150):
        n = rng.randint(1, 8)
        verts = list(range(1, n + 1))
        G = gr.Graph(verts, [e for e in itertools.combinations(verts, 2)
                             if rng.random() < rng.choice([0.3, 0.5])],
                     loops=[v for v in verts if rng.random() < 0.15])
        g = gr.delete_vertices(G, G.loops)
        for v in g.vertices:
            deletable = any(u != v and g.neighbors(u) <= g.neighbors(v) for u in g.vertices)
            assert oracles.link_is_cone(G, v) == deletable, (G, v)
            fired += deletable
        # each fold deletes a cone-link vertex, and folding stops only when none is left
        folded, trace = fold_reduce(G)
        for step in trace:
            if step["rule"] == "fold":
                v = gr.parse_label(step["deleted"])
                assert oracles.link_is_cone(g, v), (g, v)
                g = gr.delete_vertices(g, [v])
        assert not any(oracles.link_is_cone(g, v) for v in g.vertices), g
        assert folded == g and betti_of(folded) == betti_of(G), G
    assert fired >= 100


# -- simplicial splits ------------------------------------------------------------

def test_split_k2_gives_one_empty_branch():
    subs = simplicial_split(gr.complete(2), 1)
    assert len(subs) == 1 and subs[0].vertex_count == 0


def test_split_tower_gadget_gives_k2_branches():
    G = gr.tower_gadget(3, 1, 2)
    subs = simplicial_split(G, (1, 1))
    assert len(subs) == 2
    for sub in subs:
        assert sub.vertex_count == 2 and sub.edge_count == 1


def test_split_requires_simplicial_vertex():
    with pytest.raises(ValueError):
        simplicial_split(gr.path(3), 2)
    with pytest.raises(ValueError):
        simplicial_split(gr.path(3), 9)


def test_split_wedge_of_suspensions_matches_homology():
    """At a simplicial vertex, betti(G) = sum over branches of shifted betti."""
    rng = random.Random(71)
    done = 0
    while done < 50:
        G = rand_graph(rng, rng.randint(2, 8), p=rng.choice([0.3, 0.5, 0.7]))
        v = next((v for v in G.vertices if gr.is_simplicial_vertex(G, v)), None)
        if v is None:
            continue
        done += 1
        whole = betti_of(G)
        acc = {}
        for sub in simplicial_split(G, v):
            K = independence_complex(sub)
            for d, val in betti_reduced(K).betti.items():
                if val:
                    acc[d + 1] = acc.get(d + 1, 0) + val
        assert whole == acc, (G.edges, v)


# -- cone certificates ------------------------------------------------------------

def test_edge_add_cone_fires_on_c6():
    bigger = edge_add_if_cone(gr.cycle(6), 1, 3)
    assert bigger is not None and bigger.has_edge(1, 3)
    assert betti_of(bigger) == betti_of(gr.cycle(6)) == {1: 2}


def test_edge_add_refuses_on_c5():
    # N[{a,b}] of any non-adjacent pair covers all of C_5: the residual is
    # empty, and adding the edge would change S^1 to a cone
    assert edge_add_if_cone(gr.cycle(5), 1, 3) is None
    plus = gr.add_edge(gr.cycle(5), 1, 3)
    assert betti_of(plus) == {} and betti_of(gr.cycle(5)) == {1: 1}


def test_edge_add_validates_independence():
    with pytest.raises(ValueError):
        edge_add_if_cone(gr.cycle(5), 1, 2)        # adjacent
    with pytest.raises(ValueError):
        edge_add_if_cone(gr.add_loop(gr.cycle(5), 1), 1, 3)
    with pytest.raises(ValueError):
        edge_add_if_cone(gr.cycle(5), 1, 1)
    with pytest.raises(ValueError):
        edge_add_if_cone(gr.cycle(5), 1, 9)


def test_edge_add_preserves_betti_when_it_fires():
    rng = random.Random(83)
    fired = 0
    for _ in range(300):
        G = rand_graph(rng, rng.randint(3, 8), p=0.4)
        verts = G.unlooped_vertices()
        pairs = [(a, b) for a, b in itertools.combinations(verts, 2)
                 if not G.has_edge(a, b)]
        if not pairs:
            continue
        a, b = rng.choice(pairs)
        bigger = edge_add_if_cone(G, a, b)
        if bigger is None:
            continue
        fired += 1
        assert betti_of(bigger) == betti_of(G)
    assert fired >= 30


def test_cone_witness_is_the_first_isolated_vertex_of_the_residual():
    rng = random.Random(59)
    found = looped = 0
    for _ in range(300):
        G = rand_graph(rng, rng.randint(2, 8), p=rng.choice([0.2, 0.4]))
        for v in G.vertices:
            if rng.random() < 0.2:
                G = gr.add_loop(G, v)
        looped += bool(G.loops)
        for a, b in itertools.combinations(G.vertices, 2):
            residual = gr.delete_vertices(G, G.closed_neighborhood_set([a, b]))
            iso = residual.isolated_vertices()
            want = iso[0] if iso else None
            adj, ia, ib = gr.adjacency_masks(G), G.vertices.index(a), G.vertices.index(b)
            w = _cone_apex(adj, (1 << len(adj)) - 1, ia, ib)
            assert (None if w is None else G.vertices[w]) == want, (G, a, b)
            found += want is not None
    assert found >= 300 and looped >= 100


# -- the rule searches against one-candidate-at-a-time scans ------------------------

def _seeded_masks(count=1500):
    """Seeded (adj, alive): looped graphs of <= 12 vertices from sparse to
    complete; alive is none, one, all or a random set of the unlooped
    vertices, as in reduce(), where looped vertices are dropped first."""
    rng = random.Random(28)
    out = []
    for _ in range(count):
        n = rng.randint(0, 12)
        p = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
        adj = [0] * n
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        for v in range(n):
            if rng.random() < 0.1:
                adj[v] |= 1 << v
        unlooped = [v for v in range(n) if not adj[v] >> v & 1]
        pick = rng.choice(["none", "one", "all", "some", "some"])
        if pick == "none" or not unlooped:
            live = []
        elif pick == "one":
            live = [rng.choice(unlooped)]
        elif pick == "all":
            live = unlooped
        else:
            live = [v for v in unlooped if rng.random() < 0.7]
        out.append((adj, sum(1 << v for v in live)))
    return out


def test_rule_searches_equal_the_one_at_a_time_scans():
    """_dominated_pair, _cone_edge (with the witness _cone_apex names for its
    pair) and graphs.first_simplicial pick what the brute-force scans pick.
    So does _dominated_pair resumed where _fold_resume says, after each fold
    of a chain run until no pair is left."""
    seen = set()
    for adj, alive in _seeded_masks():
        pair = _dominated_pair(adj, alive)
        assert pair == oracles.dominated_pair_scan(adj, alive), (adj, alive)
        folded, resumed = alive, pair
        while resumed is not None:
            folded &= ~(1 << resumed[1])
            start = _fold_resume(adj, folded, *resumed)
            resumed = _dominated_pair(adj, folded, start)
            assert resumed == oracles.dominated_pair_scan(adj, folded), (adj, folded, start)
            if start:
                seen.add("resumed")
        edge = _cone_edge(adj, alive)
        assert edge == oracles.cone_edge_by_pairs(adj, alive), (adj, alive)
        if edge is not None:
            assert _cone_apex(adj, alive, *edge) == oracles.cone_apex_scan(adj, alive, *edge)
        split_v = gr.first_simplicial(adj, alive, alive)
        assert split_v == oracles.first_simplicial_scan(adj, alive, alive), (adj, alive)
        live = oracles.mask_indices(alive)
        degrees = [bin(adj[v] & alive).count("1") for v in live]
        seen.add(min(len(live), 2))
        seen.add("isolated" if 0 in degrees else "no isolated")
        if len(live) >= 6 and min(degrees) >= len(live) - 2:
            seen.add("dense")
        seen.add("fold" if pair else "no fold")
        seen.add("cone edge" if edge else "no cone edge")
        seen.add("split" if split_v is not None else "no split")
    assert seen == {0, 1, 2, "isolated", "no isolated", "dense", "fold", "no fold",
                    "resumed", "cone edge", "no cone edge", "split", "no split"}


# -- the driver -------------------------------------------------------------------

def test_reduce_cycle5_reports_stuck_honestly():
    result, trace = reduce(gr.cycle(5))
    assert isinstance(result, Stuck)
    assert result.reason == "no rule fired"
    assert result.graph == gr.cycle(5) and trace == []


def test_reduce_cycle6_needs_the_cone_edge():
    result, trace = reduce(gr.cycle(6))
    assert result == HomotopyType.sphere(1, 2)
    assert any(step["rule"] == "add-edge-cone" for step in trace)


def test_reduce_complete_graph():
    result, trace = reduce(gr.complete(5))
    assert result == HomotopyType.sphere(0, 4)
    assert trace[0]["rule"] == "split"
    assert len(trace[0]["branches"]) == 4


def test_reduce_empty_and_point():
    assert reduce(gr.Graph([]))[0] == HomotopyType.empty_complex()
    assert reduce(gr.Graph([1]))[0].is_contractible
    assert reduce(gr.Graph([1], loops=[1]))[0] == HomotopyType.empty_complex()


@pytest.mark.parametrize("n,t", [(3, 3), (4, 3), (3, 6)])
def test_reduce_gadget_multiples_of_three_contract(n, t):
    spec = gr.tower_gadget(n, 1, t)
    result, trace = reduce(spec)
    assert isinstance(result, HomotopyType) and result.is_contractible
    assert trace


def test_reduce_paths():
    assert reduce(gr.path(7))[0].is_contractible
    assert reduce(gr.path(5))[0] == HomotopyType.sphere(1)
    assert reduce(gr.path(3))[0] == HomotopyType.sphere(0)


def test_reduce_kn_lr_contractible_cases():
    for n, r in [(2, 1), (3, 1), (2, 4), (3, 4)]:
        G = gr.categorical_product(gr.complete(n), gr.looped_path(r))
        result, _ = reduce(G)
        assert isinstance(result, HomotopyType) and result.is_contractible, (n, r)


def test_reduce_budget_reports_stuck():
    result, trace = reduce(gr.path(20), budget=1)
    assert isinstance(result, Stuck)
    assert result.reason == "budget exhausted"
    assert len(trace) == 1 and trace[0]["rule"] == "fold"


def test_reduce_is_sound_on_all_tiny_graphs():
    """Exhaustive over every labeled graph on <= 4 vertices, plus 5-vertex sparse."""
    checked = stuck = 0
    for n in range(0, 5):
        all_edges = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(all_edges)):
            G = gr.Graph(range(1, n + 1),
                         [e for i, e in enumerate(all_edges) if bits >> i & 1])
            result, _ = reduce(G)
            if isinstance(result, Stuck):
                stuck += 1
                continue
            checked += 1
            assert betti_of(G) == {d: c for d, c in result.spheres}, G.edges
    assert checked > 60
    # nothing this small should defeat the whole rule set
    assert stuck == 0


def test_reduce_is_sound_on_seeded_graphs():
    rng = random.Random(97)
    solved = 0
    for _ in range(150):
        G = rand_graph(rng, rng.randint(5, 7), p=rng.choice([0.3, 0.5, 0.7]))
        result, _ = reduce(G)
        if isinstance(result, Stuck):
            continue
        solved += 1
        claim = {d: c for d, c in result.spheres}
        assert betti_of(G) == claim, G.edges
        # a wedge of spheres has no torsion: the integer route must agree
        table = betti_reduced(independence_complex(G), "int")
        assert table.nonzero() == claim and not table.torsion
    assert solved >= 100


def test_reduce_trace_rules_are_known():
    known = {"drop-looped", "empty-graph", "cone-isolated", "fold", "split",
             "add-edge-cone"}
    rng = random.Random(5)

    def walk(steps):
        for step in steps:
            assert step["rule"] in known
            for sub in step.get("branches", ()):
                walk(sub)

    for _ in range(30):
        result, trace = reduce(rand_graph(rng, 7))
        walk(trace)


# -- the mask driver against the Graph-surgery oracle ------------------------------

def _suite_graphs():
    """Every family graph the verify suites build at their default ranges,
    the Mycielskians and the gadgets up to t = 7 among them."""
    specs = set()
    for _, builder, _ in verify.SUITES.values():
        for kind, args, _ in builder({"seed": 7, "face_budget": None}):
            if kind in ("family", "family_int"):
                specs.add(FamilySpec(*args))
            elif kind == "gadget_reduce":
                specs.add(FamilySpec("gadget", args))
            elif kind == "morse_product":
                specs.add(FamilySpec("product", args))
            elif kind == "table1":
                specs.add(FamilySpec("conjecture_k2k3kn", args))
    return [build_graph(s) for s in sorted(specs, key=FamilySpec.describe)]


def _seeded_graphs(count=1000):
    rng = random.Random(20121)
    out = []
    for _ in range(count):
        n = rng.randint(0, 12)
        verts = list(range(1, n + 1))
        p = rng.choice([0.2, 0.35, 0.5, 0.7])
        out.append(gr.Graph(verts, [e for e in itertools.combinations(verts, 2)
                                    if rng.random() < p],
                            loops=[v for v in verts if rng.random() < 0.1],
                            name=rng.choice([None, "G"])))
    return out


def _outcome(result):
    if isinstance(result, Stuck):
        g = result.graph
        return ("stuck", result.reason, result.budget_exhausted,
                g.vertices, g.edges, g.loops, g.name)
    return result


def test_reduce_equals_the_graph_surgery_oracle():
    """Same result, trace, Stuck reason and kind, and residual graph (vertices,
    edges, loops and name) as the Graph-surgery driver, at three budgets."""
    graphs = _seeded_graphs() + _suite_graphs()
    assert any(g.loops for g in graphs)
    kinds = set()
    for G in graphs:
        for budget in (10_000, 3, 1):
            result, trace = reduce(G, budget)
            want, want_trace = oracles.reduce_by_surgery(G, budget)
            assert _outcome(result) == _outcome(want), (G, budget)
            assert trace == want_trace, (G, budget)
            kinds.add(_outcome(result)[:3] if isinstance(result, Stuck) else "solved")
    assert kinds == {"solved", ("stuck", "no rule fired", False),
                     ("stuck", "budget exhausted", True)}


def _steps(trace):
    return sum(1 + sum(map(_steps, step.get("branches", ()))) for step in trace)


@pytest.mark.parametrize("family, params", [
    ("kn_lr", (3, 6)), ("multi_k2_product", (3, 4)),
    ("conjecture_k2k3kn", (2,)), ("product", (4, 4)),
])
def test_reduce_equals_the_oracle_at_every_budget(family, params):
    """At each budget from 1 to the steps of a whole run, the outcome and the
    trace equal the Graph-surgery driver's, on graphs whose splits have
    several branches: a run stopped inside a later branch keeps the
    branches before it and the one it stopped in, no more."""
    G = build_graph(FamilySpec(family, params))
    total = _steps(reduce(G)[1])
    later = 0
    for budget in range(1, total + 1):
        result, trace = reduce(G, budget)
        want, want_trace = oracles.reduce_by_surgery(G, budget)
        assert _outcome(result) == _outcome(want), budget
        assert trace == want_trace, budget
        later += isinstance(result, Stuck) and len(trace[-1].get("branches", ())) > 1
    assert later


def _frames():
    frame, n = sys._getframe(1), 0
    while frame:
        frame, n = frame.f_back, n + 1
    return n


def test_reduce_does_not_recurse_per_split():
    """A path of 900 vertices splits 300 levels deep; reduce() keeps its
    pieces on a stack, so it runs within 150 frames of its caller."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 150)
    try:
        result, _ = reduce(gr.path(900))
    finally:
        sys.setrecursionlimit(limit)
    assert result == HomotopyType.sphere(299)


@pytest.mark.parametrize("family, params, stuck", [
    ("gadget", (3, 6), False),
    ("mycielskian", (3, 4), True),
])
def test_reduce_does_no_graph_surgery(monkeypatch, family, params, stuck):
    """reduce() deletes no vertex through graphs.delete_vertices and builds a
    Graph only for the Stuck residual.  Every Graph, validated or built on
    masks, is filled in by Graph._fill, so that is what is counted."""
    G = build_graph(FamilySpec(family, params))
    deletes, builds = [], []
    delete_vertices, fill = gr.delete_vertices, gr.Graph._fill

    def counting_delete(*args, **kwargs):
        deletes.append(args)
        return delete_vertices(*args, **kwargs)

    def counting_fill(self, *args):
        builds.append(args)
        fill(self, *args)

    monkeypatch.setattr(gr, "delete_vertices", counting_delete)
    monkeypatch.setattr(gr.Graph, "_fill", counting_fill)
    result, trace = reduce(G)
    assert isinstance(result, Stuck) == stuck and trace
    assert deletes == [] and len(builds) == stuck


def _count_rule(trace, rule):
    return sum((step["rule"] == rule)
               + sum(_count_rule(sub, rule) for sub in step.get("branches", ()))
               for step in trace)


@pytest.mark.parametrize("family, params, cone_edges", [
    ("product", (5, 5), 54),
    ("gadget", (4, 6), 51),
    ("mycielskian", (4, 5), 31),
])
def test_reduce_names_each_cone_witness_once(monkeypatch, family, params, cone_edges):
    """_cone_apex runs once per add-edge-cone step, for the pair _cone_edge
    found.  Asking it about every live pair in turn takes 734, 1,391 and
    1,781 calls on these graphs."""
    calls = []
    cone_apex = homotopy._cone_apex

    def counting_apex(*args):
        calls.append(args)
        return cone_apex(*args)

    monkeypatch.setattr(homotopy, "_cone_apex", counting_apex)
    _, trace = reduce(build_graph(FamilySpec(family, params)))
    assert _count_rule(trace, "add-edge-cone") == len(calls) == cone_edges
