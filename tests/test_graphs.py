"""Graph container, family constructors, ladder surgery."""

import io
import itertools
import json
import pickle
import random
import re
from functools import reduce

import pytest

import oracles
from indtopo import graphs as gr
from indtopo.families import FamilySpec, build_graph, random_graph
from indtopo.verify import SUITES, _find_crossing, _find_triangle


# -- vertex labels -----------------------------------------------------------

def test_label_round_trip():
    for label in [0, -3, 17, "w", "x2", (1, 2), ("L", (2, 1)), (1, (2, 3), "w")]:
        assert gr.parse_label(gr.render_label(label)) == label


def test_label_rendering():
    assert gr.render_label((2, 1)) == "(2,1)"
    assert gr.render_label(("L", 3)) == "(L,3)"
    assert gr.render_label("w") == "w"


def test_validate_label_rejects():
    for bad in [True, 1.5, (1,), "not ok", "", None, [1, 2]]:
        with pytest.raises(ValueError):
            gr.validate_label(bad)


def test_parse_label_rejects_junk():
    for text in ["(1,2", "1)", "(1,2)x", "", "(,)"]:
        with pytest.raises(ValueError):
            gr.parse_label(text)


PARSE_LABELS_CASES = {
    "1,2,3": [1, 2, 3],
    " 1 , 2 ,3 ": [1, 2, 3],
    "1,,2": [1, 2],
    "1,2,": [1, 2],
    ",1": [1],
    " , ,": [],
    "": [],
    "(1,1),(1,2),(2,1)": [(1, 1), (1, 2), (2, 1)],
    "(L,(2,1)), w ,-3": [("L", (2, 1)), "w", -3],
    "(1,(2,3),w),x2": [(1, (2, 3), "w"), "x2"],
}


def test_parse_labels_splits_on_top_level_commas():
    for text, labels in PARSE_LABELS_CASES.items():
        assert gr.parse_labels(text) == labels, text


def test_parse_labels_rejects_malformed_lists():
    for text in ["(1,1)x", "1 2", "(1,2", "1)", "(1,2)),3", "((1,2)", "(1, 2)",
                 "1,(,)", "1,not ok", "(1)"]:
        with pytest.raises(ValueError):
            gr.parse_labels(text)


# -- the container -----------------------------------------------------------

def test_vertices_and_edges_are_canonically_ordered():
    g = gr.Graph([3, 1, 2], [(2, 3), (1, 2)])
    assert g.vertices == (1, 2, 3)
    assert g.edges == ((1, 2), (2, 3))
    # same data in any input order gives an equal, equally-hashed graph
    h = gr.Graph([2, 3, 1], [(1, 2), (3, 2)])
    assert g == h and hash(g) == hash(h)


def test_duplicate_labels_rejected_after_rendering():
    with pytest.raises(ValueError):
        gr.Graph([1, "1"])


def test_edge_endpoint_must_be_a_vertex():
    with pytest.raises(ValueError):
        gr.Graph([1, 2], [(1, 3)])


def test_self_pair_must_go_in_loops():
    with pytest.raises(ValueError):
        gr.Graph([1, 2], [(1, 1)])


def test_loops_and_neighborhoods():
    g = gr.Graph([1, 2, 3], [(1, 2)], loops=[3])
    assert g.is_looped(3) and not g.is_looped(1)
    assert g.neighbors(3) == frozenset({3})
    assert g.neighbors(1) == frozenset({2})
    assert g.closed_neighborhood(1) == frozenset({1, 2})
    assert g.closed_neighborhood_set([1, 3]) == frozenset({1, 2, 3})
    assert g.has_edge(3, 3) and not g.has_edge(1, 1)


def test_closed_neighborhood_set_is_the_label_union():
    rng = random.Random(59)
    for _ in range(300):
        G = _random_looped_graph(rng)
        labels = rng.sample(G.vertices, rng.randint(0, len(G.vertices)))
        want = frozenset().union(*({v} | G.neighbors(v) for v in labels))
        assert G.closed_neighborhood_set(labels) == want
    with pytest.raises(ValueError, match=r"not a vertex: \(9, 9\)"):
        G.closed_neighborhood_set([G.vertices[0], (9, 9)])


def test_isolated_excludes_looped():
    g = gr.Graph([1, 2, 3], [], loops=[3])
    assert g.isolated_vertices() == (1, 2)
    assert g.unlooped_vertices() == (1, 2)


def test_simplicial_vertex():
    p = gr.path(3)
    assert gr.is_simplicial_vertex(p, 1)
    assert not gr.is_simplicial_vertex(p, 2)       # 1 and 3 not adjacent
    assert all(gr.is_simplicial_vertex(gr.cycle(3), v) for v in (1, 2, 3))
    assert not gr.is_simplicial_vertex(gr.Graph([1]), 1)   # isolated
    # a looped neighbor is in no independent set: must disqualify
    # (at vertex 1 the split would claim S^0; the true complex is a cone on {1,3})
    assert not gr.is_simplicial_vertex(gr.add_loop(gr.path(3), 2), 1)
    assert not gr.is_simplicial_vertex(gr.add_loop(gr.path(3), 1), 1)


def _mixed_label(rng, depth=0):
    roll = rng.random()
    if roll < 0.4:
        return rng.randint(-12, 12)
    if roll < 0.7 or depth > 1:
        return rng.choice(["a", "b", "w", "x1", "x10", "y_2", "Z"])
    return tuple(_mixed_label(rng, depth + 1) for _ in range(rng.randint(2, 3)))


def test_canonical_order_and_simplicial_test_against_oracles():
    """Mixed labels sort as their rendered strings: (1,2) < -3 < 10 < 9 < Z < a."""
    rng = random.Random(41)
    seen = set()
    for _ in range(400):
        by_render = {}
        for _ in range(rng.randint(0, 9)):
            label = _mixed_label(rng)
            by_render[gr.render_label(label)] = label
        verts = list(by_render.values())
        rng.shuffle(verts)
        edges = [(u, v) if rng.random() < 0.5 else (v, u)
                 for u, v in itertools.combinations(verts, 2) if rng.random() < 0.45]
        edges += [(v, u) for u, v in edges[:2]]     # repeats, reversed
        loops = [v for v in verts if rng.random() < 0.15]
        G = gr.Graph(verts, edges, loops)
        assert (G.vertices, G.edges, G.loops) == oracles.canonical_graph(verts, edges, loops)
        for v in G.vertices:
            got = gr.is_simplicial_vertex(G, v)
            assert got == oracles.simplicial_vertex_pairwise(G, v), (G.edges, G.loops, v)
            nbrs = G.neighbors(v)
            if G.is_looped(v):
                seen.add("looped vertex")
            elif not nbrs:
                seen.add("isolated vertex")
            elif any(G.is_looped(w) for w in nbrs):
                seen.add("looped neighbour")
            else:
                seen.add("simplicial" if got else "not simplicial")
    assert seen == {"looped vertex", "isolated vertex", "looped neighbour",
                    "simplicial", "not simplicial"}


def test_first_simplicial_is_the_first_vertex_the_pairwise_oracle_accepts():
    """On seeded looped graphs, for a live subgraph and candidates among its
    vertices, first_simplicial names the lowest candidate that
    simplicial_vertex_pairwise accepts in the live subgraph."""
    rng = random.Random(28)
    found = 0
    for _ in range(600):
        G = _random_looped_graph(rng)
        adj = gr.adjacency_masks(G)
        alive = sum(1 << v for v in range(len(adj)) if rng.random() < 0.8)
        among = rng.choice([alive, alive & rng.getrandbits(len(adj))])
        H = gr.masked_subgraph(G.vertices, adj, alive)
        want = next((v for v in oracles.mask_indices(among)
                     if oracles.simplicial_vertex_pairwise(H, G.vertices[v])), None)
        assert gr.first_simplicial(adj, alive, among) == want, (G, alive, among)
        found += want is not None
    assert found >= 100


def test_queries_on_non_vertices():
    """`in` is False for any non-vertex, unhashable ones too; every other
    query names the label that is not a vertex, whichever argument it is."""
    G = gr.complete(3)
    assert 9 not in G and [1] not in G and (1, 2) not in G and 1 in G
    for query in (lambda: G.has_edge(1, 9), lambda: G.has_edge(9, 1),
                  lambda: G.has_edge([1], 2), lambda: G.neighbors(9),
                  lambda: G.neighbors([1]), lambda: G.is_looped(9),
                  lambda: G.closed_neighborhood(9)):
        with pytest.raises(ValueError, match="not a vertex"):
            query()


def test_label_index_is_built_on_the_first_lookup():
    """A graph made from masks answers its first lookup, whatever it is, as a
    validated one does, and keeps doing so after a pickled round trip."""
    fresh = gr.complete(3)
    assert fresh._index is None
    assert [1] not in fresh
    for lookup, label in ((gr.complete(3)._at, [1]), (gr.complete(3).neighbors, 99)):
        with pytest.raises(ValueError, match=rf"not a vertex: {re.escape(repr(label))}"):
            lookup(label)
    for G in (gr.path(12), gr.Graph(range(1, 13), gr.path(12).edges, name="P12")):
        H = pickle.loads(pickle.dumps(G))
        assert H == G and H.vertices[:3] == (1, 10, 11)
        assert H._at(2) == 4 and H.neighbors(10) == {9, 11} and 13 not in H
        with pytest.raises(ValueError, match="not a vertex: 13"):
            H.has_edge(1, 13)


def _random_looped_graph(rng, name=None):
    by_render = {}
    for _ in range(rng.randint(1, 6)):
        label = _mixed_label(rng)
        by_render[gr.render_label(label)] = label
    verts = list(by_render.values())
    edges = [e for e in itertools.combinations(verts, 2) if rng.random() < 0.4]
    loops = [v for v in verts if rng.random() < 0.3]
    return gr.Graph(verts, edges, loops, name=name)


def _text_forms(G):
    out = io.StringIO()
    gr.write_edgelist(G, out)
    return json.dumps(gr.graph_to_json_dict(G), indent=2, sort_keys=True), out.getvalue()


def assert_same_graph(got, want):
    """Equal, equally hashed, and alike in every derived list and text form."""
    assert got == want and hash(got) == hash(want)
    assert (got.vertices, got.edges, got.loops, got.name) == \
        (want.vertices, want.edges, want.loops, want.name)
    assert (got.edge_count, got.loop_count) == (len(want.edges), len(want.loops))
    assert [got.neighbors(v) for v in got.vertices] == [want.neighbors(v) for v in want.vertices]
    assert _text_forms(got) == _text_forms(want)


def test_mask_products_match_the_pairwise_oracle():
    """Seeded random factors with mixed labels and loops; a loop needs both."""
    rng = random.Random(17)
    looped = 0
    for _ in range(150):
        G = _random_looped_graph(rng, rng.choice([None, "G"]))
        H = _random_looped_graph(rng, rng.choice([None, "H"]))
        P = gr.categorical_product(G, H)
        assert_same_graph(P, oracles.categorical_product_by_pairs(G, H))
        looped += bool(P.loops)
        keep = [v for v in P.vertices if rng.random() < 0.6]
        want = oracles._delete_vertices(P, [v for v in P.vertices if v not in keep])
        assert_same_graph(gr.induced_subgraph(P, keep), want)
        assert_same_graph(gr.delete_vertices(P, set(P.vertices) - set(keep)), want)
    assert looped > 20


def test_product_order_is_the_rendered_order():
    """"(10,1)" sorts before "(2,1)": the canonical order is not the numeric one."""
    P = gr.categorical_product(gr.complete(10), gr.complete(3))
    assert P.vertices[:4] == ((1, 1), (1, 2), (1, 3), (10, 1))
    assert_same_graph(P, oracles.categorical_product_by_pairs(gr.complete(10), gr.complete(3)))
    for sizes in [(3, 10), (2, 3, 4), (2, 3, 11), (2, 2, 2, 3), (11, 2, 3)]:
        factors = [gr.complete(n) for n in sizes]
        assert_same_graph(reduce(gr.categorical_product, factors),
                          reduce(oracles.categorical_product_by_pairs, factors))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kn_lr_mycielskians_and_gadgets_match_the_label_oracles(n):
    for r in range(12):     # level 10 renders before level 2
        factors = gr.complete(n), gr.looped_path(r)
        assert_same_graph(gr.categorical_product(*factors),
                          oracles.categorical_product_by_pairs(*factors))
        if r:
            assert_same_graph(gr.generalized_mycielskian(gr.complete(n), r),
                              oracles.mycielskian_by_quotient(gr.complete(n), r))
    if n >= 3:
        for i, j in itertools.product(range(1, n + 1), range(5)):
            assert_same_graph(gr.tower_gadget(n, i, j), oracles.tower_gadget_by_labels(n, i, j))


@pytest.mark.parametrize("n", range(1, 13))     # from n = 10 on, "10" renders before "2"
def test_family_constructors_match_the_label_oracles(n):
    assert_same_graph(gr.complete(n), oracles.complete_by_labels(n))
    assert_same_graph(gr.path(n), oracles.path_by_labels(n))
    assert_same_graph(gr.looped_path(n), oracles.looped_path_by_labels(n))
    if n >= 3:
        assert_same_graph(gr.cycle(n), oracles.cycle_by_labels(n))
        for i in range(13):
            assert_same_graph(gr.cycle_ladder(n, i), oracles.cycle_ladder_by_labels(n, i))


def _default_suite_specs():
    """Every family instance the default suites build, with duplicates dropped."""
    of_kind = {"family": None, "family_int": None, "morse_product": "product",
               "gadget_reduce": "gadget", "table1": "conjecture_k2k3kn"}
    specs = set()
    for _, jobs, _ in SUITES.values():
        for kind, args, _ in jobs({"seed": 7, "face_budget": None}):
            if kind in of_kind:
                specs.add(args if of_kind[kind] is None else (of_kind[kind], args))
    return sorted(specs)


def test_default_suite_families_match_the_label_oracles():
    specs = _default_suite_specs()
    assert {family for family, _ in specs} == {
        "product", "mycielskian", "kn_lr", "gadget", "path", "cycle", "cycle_ladder",
        "conjecture_k2k3kn"}
    for family, params in specs:
        assert_same_graph(build_graph(FamilySpec(family, params)),
                          oracles.family_by_labels(family, params))
    for params in [(2, 2), (3, 3), (4, 2), (2, 11)]:
        assert_same_graph(build_graph(FamilySpec("multi_k2_product", params)),
                          oracles.family_by_labels("multi_k2_product", params))


def test_random_graphs_match_the_label_oracle():
    """Same pairs drawn in the same order: the same graph, and the same draws used."""
    for n, seed in itertools.product(range(13), range(50)):
        rng, want_rng = random.Random(seed), random.Random(seed)
        assert_same_graph(random_graph(n, rng), oracles.random_graph_by_labels(n, want_rng))
        assert rng.random() == want_rng.random()


def test_mycielskians_of_random_graphs_match_the_quotient_oracle():
    """Isolated vertices get no apex edge; mixed labels put the apex last."""
    rng = random.Random(23)
    for _ in range(60):
        G = _random_looped_graph(rng, rng.choice([None, "G"]))
        G = gr.Graph(G.vertices, G.edges, name=G.name)
        r = rng.randint(1, 4)
        M = gr.generalized_mycielskian(G, r)
        assert_same_graph(M, oracles.mycielskian_by_quotient(G, r))
        assert M.vertices[-1] == gr.APEX


def test_crossing_and_triangle_searches_match_the_label_walks():
    rng = random.Random(31)
    found = set()
    for _ in range(300):
        n = rng.randint(1, 8)
        verts = list(range(1, n + 1))
        G = gr.Graph(verts, [e for e in itertools.combinations(verts, 2) if rng.random() < 0.4],
                     [v for v in verts if rng.random() < 0.15])
        crossing, triangle = _find_crossing(G), _find_triangle(G)
        assert crossing == oracles.find_crossing_by_labels(G)
        assert triangle == oracles.find_triangle_by_labels(G)
        found.add((crossing is None, triangle is None))
    assert found >= {(True, True), (False, True), (False, False)}


# -- stock families ----------------------------------------------------------

def test_complete():
    k4 = gr.complete(4)
    assert k4.vertices == (1, 2, 3, 4)
    assert k4.edge_count == 6 and k4.loop_count == 0
    assert gr.complete(1).edge_count == 0
    with pytest.raises(ValueError):
        gr.complete(0)


def test_path_and_cycle():
    assert gr.path(5).edges == ((1, 2), (2, 3), (3, 4), (4, 5))
    assert gr.path(1).edge_count == 0
    c = gr.cycle(5)
    assert c.edge_count == 5 and c.has_edge(1, 5)
    assert oracles.is_cycle_graph(c, 5)
    with pytest.raises(ValueError):
        gr.cycle(2)


def test_looped_path():
    lp = gr.looped_path(3)
    assert lp.vertices == (0, 1, 2, 3)
    assert lp.loops == (0,) and lp.edge_count == 3
    lone = gr.looped_path(0)
    assert lone.vertices == (0,) and lone.loops == (0,)


def test_product_adjacency_rule():
    G, H = gr.cycle(4), gr.looped_path(2)
    P = gr.categorical_product(G, H)
    assert P.vertex_count == 12
    for (g1, h1), (g2, h2) in itertools.combinations(P.vertices, 2):
        want = G.has_edge(g1, g2) and H.has_edge(h1, h2)
        assert P.has_edge((g1, h1), (g2, h2)) == want
    assert P.loop_count == 0       # loop needs both coordinates self-adjacent
    P2 = gr.categorical_product(gr.add_loop(G, 1), H)
    assert P2.loops == ((1, 0),)


def test_product_k2_k2_is_two_disjoint_edges():
    P = gr.categorical_product(gr.complete(2), gr.complete(2))
    assert set(P.edges) == {((1, 1), (2, 2)), ((1, 2), (2, 1))}


def test_product_rejects_empty_factor():
    with pytest.raises(ValueError):
        gr.categorical_product(gr.Graph([]), gr.complete(2))


# -- Mycielskian levels ------------------------------------------------------

def test_mycielskian_counts_and_apex_rule():
    M = gr.generalized_mycielskian(gr.complete(3), 4)
    assert M.vertex_count == 13 and M.edge_count == 24 and M.loop_count == 0
    assert set(M.neighbors(gr.APEX)) == {(v, 3) for v in (1, 2, 3)}
    # inside the levels, adjacency is the product rule
    assert M.has_edge((1, 0), (2, 1)) and not M.has_edge((1, 0), (1, 1))
    assert M.has_edge((1, 0), (2, 0))     # level 0 keeps the base edges


def test_mycielskian_apex_skips_isolated_vertices():
    G = gr.Graph([1, 2, 3], [(1, 2)])
    M = gr.generalized_mycielskian(G, 2)
    assert M.has_edge(gr.APEX, (1, 1)) and M.has_edge(gr.APEX, (2, 1))
    assert not M.has_edge(gr.APEX, (3, 1))


@pytest.mark.parametrize("r", range(1, 9))
def test_mycielskian_of_k2_is_odd_cycle(r):
    M = gr.generalized_mycielskian(gr.complete(2), r)
    assert oracles.is_cycle_graph(M, 2 * r + 1)


def test_mycielskian_rejects_bad_input():
    with pytest.raises(ValueError):
        gr.generalized_mycielskian(gr.complete(3), 0)
    with pytest.raises(ValueError):
        gr.generalized_mycielskian(gr.looped_path(2), 2)


# -- tower gadgets and ladders -----------------------------------------------

def test_tower_gadget_structure():
    g = gr.tower_gadget(3, 1, 2)
    assert set(g.vertices) == {(v, j) for v in (1, 2, 3) for j in (0, 1)} | {(1, 2)}
    assert set(g.neighbors((1, 2))) == {(2, 1), (3, 1)}
    assert g.has_edge((1, 0), (2, 0)) and not g.has_edge((1, 1), (2, 1))


def test_tower_gadget_low_floors():
    lone = gr.tower_gadget(3, 2, 0)
    assert lone.vertices == ((2, 0),) and lone.edge_count == 0
    g = gr.tower_gadget(4, 3, 1)
    assert g.vertex_count == 5
    assert set(g.neighbors((3, 1))) == {(v, 0) for v in (1, 2, 4)}


def test_tower_gadget_domain():
    for bad in [(2, 1, 3), (3, 0, 3), (3, 4, 3), (3, 1, -1)]:
        with pytest.raises(ValueError):
            gr.tower_gadget(*bad)


@pytest.mark.parametrize("n,i", [(3, 1), (5, 2), (6, 4)])
def test_cycle_ladder_counts(n, i):
    g = gr.cycle_ladder(n, i)
    assert g.vertex_count == n + 2 * i
    assert g.edge_count == n + 3 * i
    assert g.has_edge(2, "x1") and g.has_edge(n, "y1")
    assert g.has_edge(1, f"x{i}") and g.has_edge(1, f"y{i}")
    assert g.has_edge(f"x{i}", f"y{i}")
    assert not g.has_edge(1, 2) and not g.has_edge(1, n)


def test_cycle_ladder_zero_rungs_is_the_cycle():
    g = gr.cycle_ladder(5, 0)
    assert g.vertices == gr.cycle(5).vertices and g.edges == gr.cycle(5).edges


def test_ladder_replace_crossing():
    G = gr.complete(4)
    H = gr.ladder_replace_crossing(G, 1, 2, 3, 4)
    assert H.vertex_count == 8
    assert H.edge_count == G.edge_count - 2 + 8
    for e in [(1, "a"), ("a", "b"), ("b", 3), (2, "c"), ("c", "d"),
              ("d", 4), ("a", "c"), ("b", "d")]:
        assert H.has_edge(*e)
    assert not H.has_edge(1, 4) and not H.has_edge(2, 3)
    assert H.has_edge(1, 2)


def test_ladder_replace_triangle():
    H = gr.ladder_replace_triangle(gr.complete(3), 1, 2, 3)
    assert H.vertex_count == 7 and H.edge_count == 9
    assert H.has_edge("b", 3) and H.has_edge("d", 3)
    assert not H.has_edge(1, 3) and not H.has_edge(2, 3)
    assert H.has_edge(1, 2)


def test_ladder_drops_edges_given_in_either_orientation():
    # the crossing is passed as (12, 9) and (11, 10); "12" renders before "9",
    # so the graph holds those edges as (12, 9) and (10, 11)
    G = gr.Graph([9, 10, 11, 12], [(9, 10), (9, 12), (10, 11), (11, 12)])
    H = gr.ladder_replace_crossing(G, 12, 11, 10, 9)
    assert H.edge_count == G.edge_count - 2 + 8
    assert not H.has_edge(9, 12) and not H.has_edge(10, 11) and H.has_edge(11, 12)
    T = gr.ladder_replace_triangle(gr.Graph([9, 10, "x"], [(9, 10), (10, "x"), ("x", 9)]),
                                   "x", 10, 9)
    assert T.edge_count == 3 - 2 + 8
    assert not T.has_edge("x", 9) and not T.has_edge(10, 9) and T.has_edge("x", 10)


def test_ladder_fresh_labels_avoid_collisions():
    G = gr.Graph([1, 2, 3, 4, "a"], [(1, 2), (1, 4), (2, 3), (3, 4)])
    H = gr.ladder_replace_crossing(G, 1, 2, 3, 4)
    assert "a2" in H and "b" in H and H.vertex_count == 9


def test_ladder_replace_validates():
    with pytest.raises(ValueError):
        gr.ladder_replace_crossing(gr.path(4), 1, 2, 3, 4)   # no (1,4) edge
    with pytest.raises(ValueError):
        gr.ladder_replace_crossing(gr.complete(4), 1, 2, 3, 3)
    with pytest.raises(ValueError):
        gr.ladder_replace_triangle(gr.path(3), 1, 2, 3)


# -- surgery -----------------------------------------------------------------

def test_induced_subgraph_and_delete():
    g = gr.cycle(5)
    h = gr.induced_subgraph(g, [1, 2, 3])
    assert h.vertices == (1, 2, 3) and h.edges == ((1, 2), (2, 3))
    assert gr.delete_vertices(g, [4, 5]) == h
    with pytest.raises(ValueError):
        gr.induced_subgraph(g, [9])
    assert g.vertex_count == 5      # originals untouched


def test_add_edge_add_loop():
    g = gr.path(3)
    assert gr.add_edge(g, 1, 3).has_edge(1, 3)
    assert gr.add_loop(g, 2).is_looped(2)
    with pytest.raises(ValueError):
        gr.add_edge(g, 1, 1)
    with pytest.raises(ValueError):
        gr.add_edge(g, 1, 9)
    assert not g.has_edge(1, 3)


def test_construction_is_deterministic():
    a = gr.generalized_mycielskian(gr.complete(4), 3)
    b = gr.generalized_mycielskian(gr.complete(4), 3)
    assert a.vertices == b.vertices and a.edges == b.edges
