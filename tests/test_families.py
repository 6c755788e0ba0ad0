"""Family specs and graph builders shared by the CLI and the harness."""

import random

import pytest

from indtopo import graphs as gr
from indtopo.families import FAMILIES, FamilySpec, build_graph, random_graph


def test_registry_covers_every_builder():
    for family, fam in FAMILIES.items():
        assert fam.params and fam.hint
        assert all(isinstance(least, int) for least in fam.domain.values())
        least = tuple(fam.domain.values())
        spec = FamilySpec(family, least)
        assert build_graph(spec).vertex_count > 0
        assert isinstance(fam.spheres(*least), dict)
        source = fam.source(*least) if callable(fam.source) else fam.source
        assert source in ("closed-form", "literature", "conjecture")
        # one below the least value of any parameter is out of range
        for k in range(len(least)):
            below = least[:k] + (least[k] - 1,) + least[k + 1:]
            with pytest.raises(ValueError, match="out of range"):
                FamilySpec(family, below)


def test_spec_validation():
    FamilySpec("product", (3, 4))
    with pytest.raises(ValueError):
        FamilySpec("product", (3,))           # arity
    with pytest.raises(ValueError):
        FamilySpec("product", (1, 4))         # domain
    with pytest.raises(ValueError):
        FamilySpec("no_such_family", (1,))
    with pytest.raises(ValueError, match="unknown family"):
        FamilySpec("custom-file")             # a graph file is not a family


def test_spec_coerces_and_describes():
    s = FamilySpec("kn_lr", ("3", "2"))
    assert s.params == (3, 2)
    assert s.describe() == "kn_lr 3 2"


@pytest.mark.parametrize("params", [(2.7,), (3.0,), (True,), (None,), ("2.7",), ("x",), ([3],)])
def test_spec_rejects_parameters_that_are_not_integers(params):
    """No truncation or coercion: P2 from 2.7 and P1 from True were the old bugs."""
    with pytest.raises(ValueError, match=r"\Apath parameters must be integers: n \(n >= 1\)\Z"):
        FamilySpec("path", params)
    with pytest.raises(ValueError, match="product parameters must be integers: m n"):
        FamilySpec("product", (3, *params))


def test_spec_errors_name_the_family_and_its_hint():
    with pytest.raises(ValueError, match=r"\Aproduct takes 2 parameter\(s\): m n \(complete"):
        FamilySpec("product", (3,))
    with pytest.raises(ValueError, match=r"\Acycle parameters out of range: n \(n >= 3\)\Z"):
        FamilySpec("cycle", ("2",))


def test_build_graph_counts():
    assert build_graph(FamilySpec("product", (3, 4))).vertex_count == 12
    assert build_graph(FamilySpec("multi_k2_product", (3, 3))).vertex_count == 12
    assert build_graph(FamilySpec("multi_k2_product", (4, 2))).vertex_count == 16
    assert build_graph(FamilySpec("kn_lr", (3, 2))).vertex_count == 9
    assert build_graph(FamilySpec("mycielskian", (3, 4))).vertex_count == 13
    assert build_graph(FamilySpec("path", (6,))).vertex_count == 6
    assert build_graph(FamilySpec("cycle", (7,))).edge_count == 7
    assert build_graph(FamilySpec("cycle_ladder", (5, 2))).vertex_count == 9
    assert build_graph(FamilySpec("conjecture_k2k3kn", (4,))).vertex_count == 24


def test_build_gadget_pins_first_tower_column():
    assert build_graph(FamilySpec("gadget", (3, 2))) == gr.tower_gadget(3, 1, 2)
    assert (2, 2) not in build_graph(FamilySpec("gadget", (3, 2)))


def test_build_kn_lr_is_the_product_with_a_looped_path():
    G = build_graph(FamilySpec("kn_lr", (3, 2)))
    assert G == gr.categorical_product(gr.complete(3), gr.looped_path(2))
    # a product loop needs both coordinates looped; K_n has none
    assert G.loop_count == 0


def test_build_multi_k2_is_iterated_product():
    want = gr.categorical_product(
        gr.categorical_product(gr.complete(2), gr.complete(2)), gr.complete(3))
    assert build_graph(FamilySpec("multi_k2_product", (3, 3))) == want


def test_random_graph_is_seed_deterministic():
    a = random_graph(8, random.Random(5))
    b = random_graph(8, random.Random(5))
    c = random_graph(8, random.Random(6))
    assert a == b
    assert a.vertices == tuple(range(1, 9))
    assert a != c or a.edges != c.edges
    assert random_graph(5, random.Random(1), p=0).edge_count == 0
    assert random_graph(5, random.Random(1), p=1).edge_count == 10
