"""Wedge-of-spheres algebra and the closed-form family predictions."""

import random

import pytest

from indtopo.complexes import independence_complex
from indtopo.families import FAMILIES, FamilySpec, build_graph
from indtopo.homology import betti_reduced
from indtopo.homotopy import (
    HomotopyType,
    join,
    predict,
    wedge,
    wedge_all,
)
from oracles import suspend

POINT = HomotopyType.contractible()
EMPTY = HomotopyType.empty_complex()


def rand_type(rng):
    return HomotopyType({rng.randint(0, 5): rng.randint(0, 3)
                         for _ in range(rng.randint(0, 3))})


# -- the algebra ---------------------------------------------------------------

def test_construction_normalizes():
    t = HomotopyType({2: 1, 0: 0, 3: 2})
    assert t.spheres == ((2, 1), (3, 2))
    assert t == HomotopyType([(3, 2), (2, 1)])
    assert hash(t) == hash(HomotopyType({2: 1, 3: 2}))
    assert t.betti() == {2: 1, 3: 2}


def test_construction_validates():
    with pytest.raises(ValueError):
        HomotopyType({1: -1})
    with pytest.raises(ValueError):
        HomotopyType({-2: 1})
    with pytest.raises(ValueError):
        HomotopyType({-1: 2})
    with pytest.raises(ValueError):
        HomotopyType({-1: 1, 0: 1})
    with pytest.raises(ValueError):
        HomotopyType({1.0: 1})
    with pytest.raises(ValueError):
        HomotopyType({1: True})
    with pytest.raises(ValueError):
        HomotopyType({True: 1})


def test_construction_rejects_bools():
    # bool is an int subclass, so {True: 1} would otherwise render as "S^True"
    for spheres in ({True: 1}, {2: True}, {False: False}):
        with pytest.raises(ValueError):
            HomotopyType(spheres)


def test_render():
    assert POINT.render() == "point"
    assert EMPTY.render() == "S^-1"
    assert HomotopyType.sphere(2).render() == "S^2"
    assert HomotopyType.sphere(2, 6).render() == "wedge(6, S^2)"
    assert HomotopyType({1: 1, 3: 2}).render() == "S^1 v wedge(2, S^3)"


def test_join_basics():
    s = HomotopyType.sphere
    assert join(s(0), s(0)) == s(1)
    assert join(s(2, 3), s(1, 2)) == s(4, 6)
    assert join(POINT, s(5)) == POINT        # coning kills everything
    assert join(EMPTY, s(5)) == s(5)         # the empty complex is the identity
    assert join(EMPTY, EMPTY) == EMPTY


def test_suspend_is_join_with_s0():
    rng = random.Random(3)
    for _ in range(50):
        t = rand_type(rng)
        assert suspend(t) == join(t, HomotopyType.sphere(0))
    assert suspend(POINT) == POINT
    assert suspend(EMPTY) == POINT.sphere(0)


def test_wedge_basics():
    s = HomotopyType.sphere
    assert wedge(s(1, 2), s(1, 3)) == s(1, 5)
    assert wedge(POINT, s(2)) == s(2)
    assert wedge_all([s(0), s(1), s(0)]) == HomotopyType({0: 2, 1: 1})
    assert wedge_all([]) == POINT
    assert wedge_all(iter([EMPTY])) == EMPTY
    with pytest.raises(ValueError):
        wedge(EMPTY, EMPTY)       # two empty complexes are not a wedge
    for parts in ([EMPTY, EMPTY], [s(0), EMPTY, POINT], [EMPTY, s(2)]):
        with pytest.raises(ValueError, match="the empty complex S\\^-1 cannot appear"):
            wedge_all(parts)


def test_join_laws_random():
    rng = random.Random(41)
    for _ in range(100):
        a, b, c = rand_type(rng), rand_type(rng), rand_type(rng)
        assert join(a, b) == join(b, a)
        assert join(join(a, b), c) == join(a, join(b, c))
        # bilinearity over the wedge
        assert join(wedge(a, b), c) == wedge(join(a, c), join(b, c))


# -- closed-form predictions ------------------------------------------------------

def P(family, *params):
    return predict(FamilySpec(family, params))


def test_product_prediction():
    assert P("product", 4, 5).homotopy.render() == "wedge(12, S^1)"
    assert P("product", 2, 2).homotopy.render() == "S^1"
    pred = P("product", 3, 3)
    assert not pred.conjectural and pred.source == "closed-form"


def test_multi_k2_prediction():
    assert P("multi_k2_product", 2, 3).homotopy == HomotopyType.sphere(1, 2)
    assert P("multi_k2_product", 3, 3).homotopy == HomotopyType.sphere(3, 4)
    assert P("multi_k2_product", 4, 2).homotopy == HomotopyType.sphere(7, 1)
    assert P("multi_k2_product", 4, 3).homotopy == HomotopyType.sphere(7, 16)


def test_kn_lr_prediction():
    assert P("kn_lr", 3, 0).homotopy == HomotopyType.sphere(0, 2)
    assert P("kn_lr", 3, 1).homotopy == POINT
    assert P("kn_lr", 3, 2).homotopy == HomotopyType.sphere(1, 2)
    assert P("kn_lr", 4, 3).homotopy == HomotopyType.sphere(2, 9)
    assert P("kn_lr", 2, 6).homotopy == HomotopyType.sphere(4, 1)


def test_gadget_prediction():
    assert P("gadget", 3, 3).homotopy == POINT
    assert P("gadget", 3, 6).homotopy == POINT
    assert P("gadget", 3, 1).homotopy == HomotopyType.sphere(0, 2)
    assert P("gadget", 4, 5).homotopy == HomotopyType.sphere(3, 9)
    assert P("gadget", 3, 0).homotopy == POINT


def test_path_cycle_prediction():
    assert P("path", 1).homotopy == POINT
    assert P("path", 3).homotopy == HomotopyType.sphere(0)
    assert P("path", 5).homotopy == HomotopyType.sphere(1)
    assert P("path", 7).homotopy == POINT
    assert P("cycle", 3).homotopy == HomotopyType.sphere(0, 2)
    assert P("cycle", 5).homotopy == HomotopyType.sphere(1)
    assert P("cycle", 6).homotopy == HomotopyType.sphere(1, 2)
    assert P("cycle", 7).homotopy == HomotopyType.sphere(1)
    assert P("cycle", 5).source == "literature"


def test_mycielskian_prediction():
    assert P("mycielskian", 3, 4).homotopy == HomotopyType.sphere(2, 6)
    assert P("mycielskian", 3, 3).homotopy == HomotopyType.sphere(1, 2)
    assert P("mycielskian", 4, 6).homotopy == HomotopyType.sphere(3, 9)
    assert P("mycielskian", 4, 4).homotopy == HomotopyType.sphere(2, 12)
    assert P("mycielskian", 4, 5).homotopy == HomotopyType.sphere(3, 9)
    assert P("mycielskian", 2, 2).source == "literature"
    assert P("mycielskian", 3, 4).source == "closed-form"


def test_mycielskian_of_k2_matches_odd_cycles():
    for r in range(2, 9):
        assert P("mycielskian", 2, r).homotopy == P("cycle", 2 * r + 1).homotopy


def test_cycle_ladder_prediction():
    assert P("cycle_ladder", 5, 0).homotopy == P("cycle", 5).homotopy
    assert P("cycle_ladder", 3, 2).homotopy == HomotopyType.sphere(1, 2)
    assert P("cycle_ladder", 3, 1).homotopy == POINT
    assert P("cycle_ladder", 4, 1).homotopy == HomotopyType.sphere(1, 2)
    assert P("cycle_ladder", 4, 2).homotopy == POINT
    assert P("cycle_ladder", 5, 1).homotopy == HomotopyType.sphere(1, 2)
    assert P("cycle_ladder", 5, 4).homotopy == HomotopyType.sphere(3, 2)
    for i, source in [(0, "literature"), (1, "closed-form"), (4, "closed-form")]:
        pred = P("cycle_ladder", 5, i)
        assert pred.source == source and not pred.conjectural


def test_conjecture_prediction_is_flagged():
    pred = P("conjecture_k2k3kn", 5)
    assert pred.homotopy == HomotopyType.sphere(3, 52)
    assert pred.conjectural and pred.source == "conjecture"
    assert P("conjecture_k2k3kn", 2).homotopy == HomotopyType.sphere(3, 4)
    assert P("conjecture_k2k3kn", 6).homotopy == HomotopyType.sphere(3, 80)


def test_predictor_domains():
    for family, params in [("product", (1, 5)), ("multi_k2_product", (1, 2)),
                           ("kn_lr", (1, 0)), ("kn_lr", (2, -1)),
                           ("gadget", (2, 1)), ("mycielskian", (1, 2)),
                           ("mycielskian", (3, 1)), ("path", (0,)),
                           ("cycle", (2,)), ("cycle_ladder", (2, 0)),
                           ("conjecture_k2k3kn", (1,))]:
        with pytest.raises(ValueError):
            predict(FamilySpec(family, params))


def test_predictions_match_computed_homology_on_small_instances():
    """Every predictor, cross-checked against the homology route."""
    cases = [("product", (m, n)) for m in (2, 3, 4) for n in (2, 3, 4)]
    cases += [("multi_k2_product", (2, 2)), ("multi_k2_product", (2, 4)),
              ("multi_k2_product", (3, 2)), ("multi_k2_product", (3, 3))]
    cases += [("kn_lr", (n, r)) for n in (2, 3) for r in range(0, 5)]
    cases += [("gadget", (3, t)) for t in range(0, 5)] + [("gadget", (4, 2))]
    cases += [("path", (n,)) for n in range(1, 11)]
    cases += [("cycle", (n,)) for n in range(3, 11)]
    cases += [("mycielskian", (2, r)) for r in (2, 3, 4)]
    cases += [("mycielskian", (3, r)) for r in (2, 3, 4)]
    cases += [("cycle_ladder", (n, i)) for n in (3, 4, 5) for i in (0, 1, 2)]
    cases += [("conjecture_k2k3kn", (2,)), ("conjecture_k2k3kn", (3,))]
    assert {family for family, _ in cases} == set(FAMILIES)
    for family, params in cases:
        spec = FamilySpec(family, params)
        expected = predict(spec).homotopy.betti()
        table = betti_reduced(independence_complex(build_graph(spec)))
        assert table.matches(expected), (family, params, table.nonzero(), expected)
