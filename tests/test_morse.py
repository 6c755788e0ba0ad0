"""Ordered element matchings: construction, acyclicity, critical cells."""

import itertools
import json
import random

import pytest

import oracles
from indtopo import cli, verify
from indtopo import graphs as gr
from indtopo.complexes import from_facets, independence_complex
from indtopo.homology import BettiTable, betti_reduced
from indtopo.morse import (
    Matching,
    MatchingError,
    element_matching,
    product_matching_order,
    verify_acyclic,
    wedge_conclusion,
)


def product_complex(m, n):
    return independence_complex(
        gr.categorical_product(gr.complete(m), gr.complete(n)))


def rand_graph(rng, n, p=0.5):
    verts = list(range(1, n + 1))
    return gr.Graph(verts, [e for e in itertools.combinations(verts, 2)
                            if rng.random() < p])


# -- the sweep ----------------------------------------------------------------

def test_full_simplex_single_element_clears_everything():
    K = independence_complex(gr.Graph([1, 2]))
    m = element_matching(K, [1])
    assert m.pairs == (((), (1,)), ((2,), (1, 2)))
    assert m.critical == ()
    assert m.critical_counts() == {}
    assert m.empty_face_matched
    assert wedge_conclusion(m, K).is_contractible


def test_two_points_leave_one_critical_vertex():
    K = independence_complex(gr.complete(2))
    m = element_matching(K, [1, 2])
    assert m.pairs == (((), (1,)),)
    assert m.critical == ((2,),)
    assert wedge_conclusion(m, K).render() == "S^0"


def test_product_2x2_critical_cell():
    K = product_complex(2, 2)
    m = element_matching(K, product_matching_order(2, 2))
    assert m.critical == ((((2, 1), (2, 2)),))
    assert m.empty_face_matched
    assert wedge_conclusion(m, K).render() == "S^1"


@pytest.mark.parametrize("m,n", [(m, n) for m in range(2, 7) for n in range(2, 7)])
def test_product_sweep_critical_set_exactly(m, n):
    """First-row-then-first-column sweeps leave the predicted (m-1)(n-1) edges."""
    K = product_complex(m, n)
    match = element_matching(K, product_matching_order(m, n))
    ok, witness = verify_acyclic(match, K)
    assert ok and witness is None
    want = {tuple(sorted(((i, 1), (i, j)))) for i in range(2, m + 1)
            for j in range(2, n + 1)}
    assert set(match.critical) == want
    assert match.empty_face_matched
    assert wedge_conclusion(match, K).render() in (f"wedge({(m-1)*(n-1)}, S^1)", "S^1")


def test_order_may_be_a_strict_subset():
    K = product_complex(3, 3)
    m = element_matching(K, [(1, 1)])
    # every face not touching (1,1)'s closed neighborhood pairs with it
    assert all((1, 1) in big for _, big in m.pairs)
    assert m.empty_face_matched


def test_order_validation():
    K = independence_complex(gr.path(3))
    with pytest.raises(MatchingError):
        element_matching(K, [1, 1])
    with pytest.raises(ValueError):
        element_matching(K, [9])
    with pytest.raises(ValueError):
        element_matching(K, [[1]])


def test_matching_dump_shape():
    K = product_complex(2, 2)
    m = element_matching(K, product_matching_order(2, 2))
    d = m.to_json_dict()
    assert d["order"] == ["(1,1)", "(1,2)", "(2,1)"]
    assert d["critical"] == [["(2,1)", "(2,2)"]]
    assert d["critical_counts"] == {"1": 1}
    assert d["empty_face_matched"] is True
    assert len(d["pairs"]) == len(m.pairs)


def test_product_matching_order_domain():
    assert product_matching_order(2, 3) == [(1, 1), (1, 2), (1, 3), (2, 1)]
    with pytest.raises(ValueError):
        product_matching_order(1, 3)


# -- acyclicity ----------------------------------------------------------------

def test_element_matching_equals_the_whole_pool_sweep():
    """Per-vertex sweeps give the same Matching as scanning the whole pool."""
    rng = random.Random(61)
    for k in range(400):
        n = rng.randint(0, 8)
        if k % 2:
            G = rand_graph(rng, n, p=rng.choice([0.2, 0.4, 0.6]))
            K = independence_complex(G)
        else:
            verts = [rng.choice([v, f"v{v}", (v, "t")]) for v in range(n)]
            facets = [rng.sample(verts, rng.randint(0, n)) for _ in range(rng.randint(0, 4))]
            K = from_facets(verts, facets)
        order = list(K.vertices)
        rng.shuffle(order)
        order = order[:rng.randint(0, len(order))]
        m = element_matching(K, order)
        assert (m.pairs, m.critical) == oracles.ordered_matching_sweep(K, order)


def test_element_matchings_are_always_acyclic():
    rng = random.Random(17)
    for _ in range(200):
        G = rand_graph(rng, rng.randint(1, 7), p=rng.choice([0.2, 0.5, 0.8]))
        K = independence_complex(G)
        verts = list(G.vertices)
        rng.shuffle(verts)
        order = verts[:rng.randint(0, len(verts))]
        m = element_matching(K, order)
        ok, witness = verify_acyclic(m, K)
        assert ok and witness is None


def test_hand_built_cycle_is_caught():
    K = from_facets([1, 2, 3], [(1, 2), (1, 3), (2, 3)])  # bit i is vertex i + 1
    looped = Matching(order=(), critical=(0,), K=K,
                      pairs=((0b001, 0b011), (0b010, 0b110), (0b100, 0b101)))
    ok, witness = verify_acyclic(looped, K)
    assert not ok
    assert witness[0] == witness[-1] and len(witness) >= 4
    with pytest.raises(MatchingError):
        wedge_conclusion(looped, K)


def random_matching(rng, K, density):
    """A random matching by covers on K's face masks, often cyclic; returns it
    with K's faces in labels."""
    masks = [f for d in K.dims() for f in K.face_masks(d)]
    covers = [(big ^ 1 << i, big) for big in masks for i in gr.bits(big)]
    rng.shuffle(covers)
    used, pairs = set(), []
    for small, big in covers:
        if small not in used and big not in used and rng.random() < density:
            used.update((small, big))
            pairs.append((small, big))
    critical = tuple(f for f in masks if f not in used)
    return Matching((), tuple(pairs), critical, K), list(map(K.labels, masks))


def hasse_oracle_complexes(rng):
    """(label kind, complex): int labels, then the tuple labels of categorical
    products and int, identifier and tuple labels mixed in one complex."""
    for _ in range(3000):
        G = rand_graph(rng, rng.randint(3, 7), p=rng.choice([0.0, 0.2, 0.4]))
        yield "int", independence_complex(G)
    for k in range(1200):
        if k % 2:
            G = gr.categorical_product(rand_graph(rng, rng.randint(2, 3), p=rng.choice([0.0, 0.5, 1.0])),
                                       gr.complete(rng.randint(2, 3)))
            yield "nested", independence_complex(G)
        else:
            n = rng.randint(3, 7)
            verts = [rng.choice([v, f"v{v}", (v, "t"), ((v,), (v, v))]) for v in range(n)]
            facets = [rng.sample(verts, rng.randint(2, min(n, 4))) for _ in range(rng.randint(2, 5))]
            yield "nested", from_facets(verts, facets)


def test_verify_acyclic_agrees_with_the_hasse_oracle():
    """The walk runs on face masks; its verdicts, and its witnesses spelled in
    labels, must not depend on how the labels nest."""
    rng = random.Random(41)
    verdicts = {(kind, ok): 0 for kind in ("int", "nested") for ok in (True, False)}
    for kind, K in hasse_oracle_complexes(rng):
        m, faces = random_matching(rng, K, rng.choice([0.7, 1.0]))
        ok, witness = verify_acyclic(m, K)
        assert ok == oracles.matching_is_acyclic(m.pairs, faces)
        verdicts[kind, ok] += 1
        if ok:
            assert witness is None
            continue
        # a closed gradient path of K's faces: up along a pair, down to another facet
        up = dict(m.pairs)
        assert witness[0] == witness[-1] and len(witness) % 2 == 1
        assert len(witness) >= 7 and len(set(witness)) == len(witness) - 1
        assert set(witness) <= set(faces)
        for i in range(0, len(witness) - 1, 2):
            assert up[witness[i]] == witness[i + 1]
            assert set(witness[i + 2]) < set(witness[i + 1])
            assert witness[i + 2] != witness[i]
    assert min(verdicts["int", ok] for ok in (True, False)) >= 500, verdicts
    assert min(verdicts["nested", ok] for ok in (True, False)) >= 300, verdicts


def test_validation_rejects_malformed_pairings():
    K = independence_complex(gr.complete(2))  # faces 0, 0b01, 0b10 on vertices (1, 2)

    def held(pairs, critical):
        return Matching((), pairs, critical, K)

    with pytest.raises(MatchingError, match="not a cover"):
        verify_acyclic(held(((0b01, 0b10),), (0,)), K)
    with pytest.raises(MatchingError, match="not a face"):
        verify_acyclic(held(((0b01, 0b11),), (0, 0b10)), K)
    with pytest.raises(MatchingError, match="used twice"):
        verify_acyclic(held(((0, 0b01),), (0,)), K)
    # Ind(K_2) is S^0: a matching that forgets a face must not read as a point
    partial = held(((0, 0b01),), ())
    with pytest.raises(MatchingError, match="covers 2 of 3 faces"):
        verify_acyclic(partial, K)
    with pytest.raises(MatchingError):
        wedge_conclusion(partial, K)
    # a mask with a bit past the last vertex names no face
    foreign = held((), (0b10, 0b100))
    with pytest.raises(MatchingError, match="not a face"):
        verify_acyclic(foreign, K)
    with pytest.raises(MatchingError):
        wedge_conclusion(foreign, K)


# -- the mask-backed matching ----------------------------------------------------

def test_equality_reads_the_held_masks():
    """Equal when order, vertex tuple and the held masks agree as sets; no
    labels are rendered to decide it."""
    K = product_complex(3, 3)
    m = element_matching(K, product_matching_order(3, 3))
    pairs, critical = m._pairs, m.critical_masks
    again = Matching(m.order, pairs[::-1], critical[::-1], K)
    assert m == again and again == m and hash(m) == hash(again)
    assert m != Matching(m.order, pairs[1:], critical, K)
    assert m != Matching(m.order, pairs, critical[1:], K)
    assert m != Matching(m.order[::-1], pairs, critical, K)
    # the same masks over another vertex tuple are another matching
    other = independence_complex(gr.Graph(range(len(K.vertices)), ()))
    assert m != Matching(m.order, pairs, critical, other)
    assert m._label_pairs is None and again._label_critical is None
    assert verify_acyclic(again, K) == (True, None)


def test_counts_and_checks_render_no_labels():
    """The counts, the empty-face flag and the checker read the face masks;
    labels are rendered only when pairs or critical are read."""
    K = product_complex(3, 4)
    m = element_matching(K, product_matching_order(3, 4))
    assert m.critical_counts() == {1: 6} and m.empty_face_matched
    assert m.pair_count == (K.total_faces - 6) // 2
    assert verify_acyclic(m, K) == (True, None)
    assert m._label_pairs is None and m._label_critical is None
    assert m.pairs is m.pairs and len(m.pairs) == m.pair_count


def test_morse_json_renders_no_pairs(monkeypatch, capsys):
    """`indtopo morse --format json` reads pair_count, not the rendered pairs."""
    def unrendered(self):
        raise AssertionError("pairs rendered in labels")

    monkeypatch.setattr(Matching, "pairs", property(unrendered))
    assert cli.main(["morse", "product", "3", "4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["pair_count"] == 28


def test_matching_on_another_vertex_tuple_is_rejected():
    """One more (isolated) vertex: every held mask is still a face of the
    bigger complex, but over another vertex tuple."""
    G = gr.cycle(5)
    m = element_matching(independence_complex(G), [1, 3])
    bigger = independence_complex(gr.Graph([*G.vertices, 6], G.edges))
    assert m.vertices != bigger.vertices
    with pytest.raises(MatchingError, match="another vertex tuple"):
        verify_acyclic(m, bigger)


def test_index_path_checks_membership():
    """A skeleton has the same vertex tuple and fewer faces."""
    G = gr.path(6)
    m = element_matching(independence_complex(G), [2, 5])
    skeleton = independence_complex(G, max_dim=1)
    assert m.vertices == skeleton.vertices
    with pytest.raises(MatchingError, match="not a face"):
        verify_acyclic(m, skeleton)


def test_tampered_index_pairs_are_rejected():
    K = independence_complex(gr.complete(2))  # faces 0, 0b01, 0b10 on vertices (1, 2)

    def tampered(pairs, critical):
        return Matching((), pairs, critical, K)

    assert verify_acyclic(tampered(((0, 0b01),), (0b10,)), K) == (True, None)
    with pytest.raises(MatchingError, match="not a cover"):
        verify_acyclic(tampered(((0b01, 0b10),), (0,)), K)
    with pytest.raises(MatchingError, match="not a cover"):  # the facet held as the larger face
        verify_acyclic(tampered(((0b01, 0),), (0b10,)), K)
    with pytest.raises(MatchingError, match="used twice"):
        verify_acyclic(tampered(((0, 0b01),), (0, 0b10)), K)
    with pytest.raises(MatchingError, match="not a face"):
        verify_acyclic(tampered(((0, 0b01),), (0b10, 0b11)), K)
    # rendering spells each held mask once, or refuses
    for pairs, critical in ((((0, 0b01),), (0b10, 0b11)), (((0, 0b01), (0, 0b10)), ()),
                            (((0b11, 0b01), (0, 0b10)), (0,)),
                            (((0b01, 0b11),), (0, 0b10)),  # the larger face is not K's
                            (((0, 0b01), (0b10, 0b01)), ()),  # a larger face held twice
                            (((0, 0b01),), (0, 0b10))):  # a smaller face also critical
        for read in (lambda m: m.pairs, lambda m: m.critical, repr, Matching.to_json_dict):
            with pytest.raises(MatchingError, match="not a face of the complex, or repeats"):
                read(tampered(pairs, critical))
    with pytest.raises(MatchingError, match="covers 2 of 3"):
        verify_acyclic(tampered(((0, 0b01),), ()), K)
    edge = independence_complex(gr.Graph([1, 2]))  # adds the face 0b11
    two_up = Matching((), ((0, 0b11),), (0b01, 0b10), edge)
    with pytest.raises(MatchingError, match="not a cover"):
        verify_acyclic(two_up, edge)


# -- Morse-theoretic bookkeeping --------------------------------------------------

def test_critical_counts_conserve_euler_and_bound_betti():
    rng = random.Random(29)
    for _ in range(80):
        G = rand_graph(rng, rng.randint(1, 7))
        K = independence_complex(G)
        verts = list(G.vertices)
        rng.shuffle(verts)
        m = element_matching(K, verts[:rng.randint(0, len(verts))])
        counts = m.critical_counts()
        # matched pairs cancel in the alternating sum
        assert sum((-1) ** d * c for d, c in counts.items()) == \
            K.euler_characteristic_reduced()
        table = betti_reduced(K)
        for d, b in table.betti.items():
            assert counts.get(d, 0) >= b


def test_wedge_conclusion_shapes():
    # mixed dimensions: no conclusion
    K = independence_complex(gr.cycle(6))
    m = element_matching(K, [1])
    assert len(m.critical_counts()) > 1
    assert wedge_conclusion(m, K) is None
    # unmatched empty face: no conclusion
    K2 = independence_complex(gr.complete(2))
    m2 = element_matching(K2, [])
    assert not m2.empty_face_matched
    assert list(m2.critical_counts().items()) == [(-1, 1), (0, 2)]   # ascending dimensions
    assert wedge_conclusion(m2, K2) is None


def test_wedge_conclusion_product_3x3():
    K = product_complex(3, 3)
    m = element_matching(K, product_matching_order(3, 3))
    assert wedge_conclusion(m, K).render() == "wedge(4, S^1)"
    # and the conclusion matches the actual homology
    assert betti_reduced(K).nonzero() == {1: 4}


# -- the morse_homology batch's failure notes ---------------------------------
# Ind of the edgeless graph on 1, 2, 3 is the full 2-simplex; its masks are
# 1, 2, 4 for the vertices.

def _cyclic_matching(K):
    """1 -> 12 -> 2 -> 23 -> 3 -> 13 -> 1, with the empty face and 123 critical."""
    return Matching((), ((1, 3), (2, 6), (4, 5)), (0, 7), K)


class _OffEuler(Matching):
    """A matching that reports one critical 5-cell more than it has."""
    __slots__ = ()

    def critical_counts(self):
        return {**super().critical_counts(), 5: 1}


def test_morse_homology_batch_notes_each_failure_kind(monkeypatch):
    """A Betti number above its critical count, a cycle and an Euler sum that
    misses chi each get their note, and the batch stops at the third."""
    kinds = iter(["inequality", "cycle", "euler", "cycle"])
    now = []

    def matching(K, order):
        now[:] = [next(kinds)]
        if now[0] == "cycle":
            return _cyclic_matching(K)
        m = element_matching(K, order)
        return _OffEuler(m.order, ((0, 1), (2, 3), (4, 5), (6, 7)), (), K) if now[0] == "euler" else m

    def betti(K):
        return BettiTable({1: 1}, "z2") if now[0] == "inequality" else betti_reduced(K)

    monkeypatch.setattr(verify, "element_matching", matching)
    monkeypatch.setattr(verify, "betti_reduced", betti)
    rec = verify.check_morse_homology_batch(3, [(gr.Graph([1, 2, 3]), [1])] * 4)
    assert rec.match is False
    notes = rec.note.split("; ")
    assert len(notes) == 3
    assert notes[0] == "#0: Morse inequality fails ({} vs {1: 1})"
    assert notes[1].startswith("#1: cycle [(1,), (1, 2), (2,)")
    assert notes[2] == "#2: Euler sum -1 != chi"


def test_morse_product_record_notes_each_failure_kind(monkeypatch):
    """A cyclic matching that leaves the empty face unmatched and the wrong
    critical cells gets all three notes, in that order."""
    monkeypatch.setattr(verify, "element_matching",
                        lambda K, order: Matching(order, (), (0, 1), K))
    monkeypatch.setattr(verify, "verify_acyclic", lambda matching, K: (False, [(1,), (1, 2)]))
    rec = verify.check_morse_product(2, 2)
    assert rec.match is False and not rec.budget_exhausted
    assert rec.note == ("cycle: [(1,), (1, 2)]; empty face unmatched; "
                        "critical set differs (2 cells)")
    assert rec.computed_betti == {-1: 1, 0: 1}


def test_morse_homology_batch_of_cycles_stops_at_three(monkeypatch):
    monkeypatch.setattr(verify, "element_matching", lambda K, order: _cyclic_matching(K))
    rec = verify.check_morse_homology_batch(3, [(gr.Graph([1, 2, 3]), [1])] * 6)
    assert rec.match is False
    notes = rec.note.split("; ")
    assert [n.split(":")[0] for n in notes] == ["#0", "#1", "#2"]
    assert all(" cycle [" in n for n in notes)
