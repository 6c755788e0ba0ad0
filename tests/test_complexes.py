"""Independence complexes and generic simplicial-complex operations."""

import itertools
import random

import pytest

import oracles
from indtopo import graphs as gr
from indtopo.complexes import (
    FaceBudgetError,
    complex_from_json_dict,
    f_vector_csv,
    faces_in_window,
    from_facets,
    independence_complex,
)


def small_graphs():
    """A grab bag of graphs small enough for the brute-force oracle."""
    yield gr.path(1)
    yield gr.path(4)
    yield gr.cycle(5)
    yield gr.cycle(6)
    yield gr.complete(4)
    yield gr.categorical_product(gr.complete(2), gr.complete(3))
    yield gr.generalized_mycielskian(gr.complete(2), 3)
    yield gr.Graph([1, 2, 3], [(1, 2)], loops=[3])
    yield gr.Graph([1, 2], [], loops=[1, 2])
    yield gr.tower_gadget(3, 1, 1)


def test_face_enumeration_matches_subset_sweep():
    key = lambda f: [gr.render_label(v) for v in f]
    for G in small_graphs():
        K = independence_complex(G)
        want = oracles.faces_by_dimension(oracles.brute_independent_sets(G))
        for d in range(-1, K.dim + 1):
            got = sorted(K.faces(d), key=key)
            assert got == want.get(d, [()] if d == -1 else [])


def test_empty_face_always_present():
    all_looped = gr.Graph([1, 2], [], loops=[1, 2])
    K = independence_complex(all_looped)
    assert K.dim == -1 and K.f_vector() == (1,)
    assert K.has_face(())


def test_f_vector_examples():
    assert independence_complex(gr.cycle(5)).f_vector() == (1, 5, 5)
    assert independence_complex(gr.path(4)).f_vector() == (1, 4, 3)
    # edgeless: the full simplex
    assert independence_complex(gr.Graph([1, 2, 3])).f_vector() == (1, 3, 3, 1)


def test_max_dim_truncates():
    G = gr.Graph(range(6))
    K = independence_complex(G, max_dim=1)
    assert K.dim == 1 and K.f_vector() == (1, 6, 15)


def test_face_lookup_and_indexing():
    K = independence_complex(gr.cycle(4))
    assert K.has_face((1, 3)) and K.has_face((3, 1))
    assert not K.has_face((1, 2))
    assert not K.has_face((99,)) and not K.has_face([[1]]) and not K.has_face(([1], 3))
    assert K.index_of(3) == K.vertices.index(3)
    with pytest.raises(ValueError):
        K.index_of(99)
    with pytest.raises(ValueError):
        K.index_of([1])


def test_euler_characteristic_reduced():
    # chi~(Ind(C_5)) = -1 + 5 - 5 = -1, the value for a circle
    assert independence_complex(gr.cycle(5)).euler_characteristic_reduced() == -1
    for G in small_graphs():
        K = independence_complex(G)
        nonempty = [f for f in oracles.brute_independent_sets(G) if f]
        want = -1 + sum((-1) ** (len(f) - 1) for f in nonempty)
        assert K.euler_characteristic_reduced() == want


def test_facets_and_bron_kerbosch_agree():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 8)
        G = gr.Graph(range(1, n + 1),
                     [e for e in itertools.combinations(range(1, n + 1), 2)
                      if rng.random() < 0.45])
        K = independence_complex(G)
        route_a = sorted(K.facets())
        faces = oracles.brute_independent_sets(G)
        route_b = sorted(tuple(sorted(f)) for f in faces if not any(f < g for g in faces))
        assert route_a == route_b


def test_complement_clique_duality():
    """Faces of Ind(G) are exactly the cliques of the complement graph."""
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 7)
        verts = list(range(1, n + 1))
        edges = [e for e in itertools.combinations(verts, 2) if rng.random() < 0.5]
        G = gr.Graph(verts, edges)
        comp = gr.Graph(verts, [e for e in itertools.combinations(verts, 2)
                                if e not in set(edges)])
        K = independence_complex(G)
        for r in range(1, n + 1):
            for combo in itertools.combinations(verts, r):
                is_clique = all(comp.has_edge(a, b)
                                for a, b in itertools.combinations(combo, 2))
                assert K.has_face(combo) == is_clique


def test_from_facets_round_trip():
    K = independence_complex(gr.cycle(6))
    K2 = from_facets(K.vertices, K.facets())
    assert K2 == K
    # downward closure from scratch
    tri = from_facets([1, 2, 3], [(1, 2, 3)])
    assert tri.f_vector() == (1, 3, 3, 1)


def test_from_facets_rejects_foreign_and_repeated_labels():
    for facets in ([(1, 3)], [(1, 1)], [(2,), ("x", 1)]):
        with pytest.raises(ValueError):
            from_facets([1, 2], facets)
        with pytest.raises(ValueError):
            complex_from_json_dict({"vertices": [1, 2], "facets": [list(f) for f in facets]})
    with pytest.raises(ValueError):
        from_facets([1, 2, 1], [(1, 2)])
    # unhashable labels: inside a facet, and in the vertex universe
    with pytest.raises(ValueError, match="outside the vertices"):
        from_facets([1, 2], [[[1]]])
    with pytest.raises(ValueError, match="unhashable vertex"):
        from_facets([[1], 2], [[2]])


def _assert_canonical(K):
    """Faces are sorted, strictly increasing index tuples in K.vertices order."""
    n = len(K.vertices)
    assert K.index_faces(-1) == ((),)
    for d in K.dims():
        fs = K.index_faces(d)
        assert list(fs) == sorted(fs) and len(set(fs)) == len(fs)
        for f in fs:
            assert len(f) == d + 1 and all(0 <= i < n for i in f)
            assert all(a < b for a, b in zip(f, f[1:]))


def mixed_label_graphs(seed, count):
    """Random graphs on ints, identifiers and tuples, with some loops."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 9)
        verts = [rng.choice([v, f"v{v}", (v, "t"), (v, (1, "u"))]) for v in range(n)]
        edges = [e for e in itertools.combinations(verts, 2) if rng.random() < 0.35]
        loops = [v for v in verts if rng.random() < 0.15]
        yield gr.Graph(verts, edges, loops=loops)


def test_every_producer_hands_canonical_faces():
    rng = random.Random(5)
    for G in mixed_label_graphs(31, 60):
        K = independence_complex(G)
        assert list(K.vertices) == [v for v in G.vertices if not G.is_looped(v)]
        _assert_canonical(K)
        for max_dim in range(-1, K.dim + 2):
            _assert_canonical(independence_complex(G, max_dim=max_dim))
        for lo in range(0, K.dim + 1):
            for hi in range(lo, K.dim + 1):
                fw = faces_in_window(G, lo, hi)
                _assert_canonical(fw)
                assert fw == independence_complex(G, max_dim=hi + 1)
        facets = K.facets() * 2
        rng.shuffle(facets)
        facets = [rng.sample(f, len(f)) for f in facets]
        verts = list(K.vertices)
        rng.shuffle(verts)
        K2 = from_facets(verts, facets)
        _assert_canonical(K2)
        assert K2 == K


def test_windowed_enumeration_matches_full():
    for G in [gr.cycle(7), gr.generalized_mycielskian(gr.complete(3), 2),
              gr.categorical_product(gr.complete(3), gr.complete(3))]:
        K = independence_complex(G)
        for lo in range(0, K.dim + 1):
            for hi in range(lo, K.dim + 1):
                fw = faces_in_window(G, lo, hi)
                for d in range(lo - 1, hi + 2):
                    assert fw.index_faces(d) == K.index_faces(d)


def test_window_validates():
    with pytest.raises(ValueError):
        faces_in_window(gr.cycle(5), -1, 2)
    with pytest.raises(ValueError):
        faces_in_window(gr.cycle(5), 3, 1)


def test_face_budget_guard():
    with pytest.raises(FaceBudgetError):
        independence_complex(gr.Graph(range(30)), face_budget=10)
    with pytest.raises(FaceBudgetError):
        faces_in_window(gr.Graph(range(40)), 2, 3, face_budget=100)
    # the guard message names the budget
    try:
        independence_complex(gr.Graph(range(30)), face_budget=10)
    except FaceBudgetError as e:
        assert "10" in str(e)


def test_face_budget_trips_at_the_last_face():
    """The guard charges each nonempty face up to the size cap once: a budget
    of exactly that many passes, and one less trips on the last face."""
    rng = random.Random(89)
    for _ in range(240):
        n = rng.randint(1, 9)
        p = rng.choice([0.2, 0.4, 0.7])
        # vertex 0 is never looped, so every graph has a nonempty face
        G = gr.Graph(range(n), [e for e in itertools.combinations(range(n), 2) if rng.random() < p],
                     loops=[v for v in range(1, n) if rng.random() < 0.2])
        sizes = [len(f) for f in oracles.brute_independent_sets(G)]
        max_dim, d_hi = rng.randint(0, 3), rng.randint(0, 3)
        for cap, build in (
                (n, lambda b: independence_complex(G, face_budget=b)),
                (max_dim + 1, lambda b: independence_complex(G, max_dim, face_budget=b)),
                (d_hi + 2, lambda b: faces_in_window(G, 0, d_hi, face_budget=b))):
            c = sum(1 for s in sizes if 0 < s <= cap)
            assert build(c).total_faces == c + 1
            with pytest.raises(FaceBudgetError) as excinfo:
                build(c - 1)
            assert str(excinfo.value) == f"face budget exceeded: {c} > {c - 1}"


def test_join_convolves_f_vectors():
    """Ind of a disjoint union is the join: f-vectors convolve."""
    rng = random.Random(9)
    for _ in range(20):
        def rand_graph():
            n = rng.randint(1, 5)
            verts = list(range(1, n + 1))
            return gr.Graph(verts, [e for e in itertools.combinations(verts, 2)
                                    if rng.random() < 0.5])
        G1, G2 = rand_graph(), rand_graph()
        f1 = independence_complex(G1).f_vector()
        f2 = independence_complex(G2).f_vector()
        fu = independence_complex(gr.disjoint_union(G1, G2)).f_vector()
        conv = [0] * (len(f1) + len(f2) - 1)
        for i, a in enumerate(f1):
            for j, b in enumerate(f2):
                conv[i + j] += a * b
        assert list(fu) == conv


def test_f_vector_csv():
    text = f_vector_csv(independence_complex(gr.cycle(5)))
    lines = text.strip().splitlines()
    assert lines[0] == "dimension,faces"
    assert lines[1] == "-1,1" and lines[-1] == "1,5"
