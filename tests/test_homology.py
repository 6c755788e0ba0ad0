"""Exact homology: GF(2) ranks, integer invariant factors, Betti tables."""

import gc
import itertools
import math
import random
import sys
import tracemalloc
from collections import Counter
from functools import partial

import pytest

import oracles
from indtopo import graphs as gr
from indtopo.complexes import (
    DEFAULT_FACE_BUDGET,
    FaceBudgetError,
    _RELABEL_AT,
    _classified_skeleton,
    _enumerate_independent,
    _face_polynomial,
    _independence_masks,
    _walk_order,
    faces_in_window,
    from_facets,
    independence_complex,
)
from indtopo.graphs import bits
from indtopo.homology import (
    BettiTable,
    Boundary,
    _gf2_pivots,
    _integer_reduce,
    betti_reduced,
    betti_window,
    boundary_matrix,
    gf2_columns,
    gf2_rank,
    graph_betti,
    smith_normal_form,
)
from oracles import RP2_FACETS


def rand_graph(rng, n, p=0.5):
    verts = list(range(1, n + 1))
    return gr.Graph(verts, [e for e in itertools.combinations(verts, 2)
                            if rng.random() < p])


# -- Smith normal form --------------------------------------------------------

def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 1]]).factors == (1, 2)
    assert smith_normal_form([[2, 4], [6, 8]]).factors == (2, 4)
    assert smith_normal_form([[0, 0], [0, 0]]).factors == ()
    assert smith_normal_form([[6]]).factors == (6,)
    assert smith_normal_form([[2, 0], [0, 3]]).factors == (1, 6)
    # the remainder 1 of 3 by 2 is the next pivot
    assert smith_normal_form([[2, 3]]).factors == (1,)


def test_snf_rejects_ragged():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


def test_snf_invariants_against_determinantal_divisors():
    rng = random.Random(31)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        snf = smith_normal_form(A)
        # divisibility chain, positivity
        fs = snf.factors
        assert all(f > 0 for f in fs)
        assert all(fs[i + 1] % fs[i] == 0 for i in range(len(fs) - 1))
        # rank agrees with exact rational elimination
        assert snf.rank == len(fs) == oracles.rank_q(A)
        # factors agree with gcds of minors
        assert fs == oracles.invariant_factors(A)


def _unimodular(k, rng):
    """A k x k integer matrix of determinant 1: elementary row operations on I."""
    M = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(3 * k):
        a, b = rng.sample(range(k), 2)
        q = rng.choice((1, -1, 2, -2))
        M[a] = [x + q * y for x, y in zip(M[a], M[b])]
    return M


def _matmul(X, Y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*Y)] for row in X]


def test_snf_recovers_the_chain_of_scrambled_diagonals():
    """U D V with U, V unimodular has D's divisibility chain as its Smith form.

    Sizes 6 to 25, entries up to about 25 bits: an exact answer past the
    reach of the minors oracle.
    """
    rng = random.Random(5)
    for _ in range(40):
        m, n = rng.randint(6, 25), rng.randint(6, 25)
        chain, f = [], 1
        for _ in range(rng.randint(1, min(m, n))):
            f *= rng.choice((1, 1, 1, 2, 3))
            chain.append(f)
        D = [[chain[i] if i == j and i < len(chain) else 0 for j in range(n)]
             for i in range(m)]
        A = _matmul(_matmul(_unimodular(m, rng), D), _unimodular(n, rng))
        snf = smith_normal_form(A)
        assert snf.factors == tuple(chain) and snf.rank == len(chain)


# -- integer elimination ---------------------------------------------------------

def sparse(dense):
    """A dense integer matrix as {row: value} columns."""
    n = len(dense[0]) if dense else 0
    return [{i: row[j] for i, row in enumerate(dense) if row[j]} for j in range(n)]


def torsion_of(factors):
    return tuple(f for f in factors if f > 1)


def test_integer_reduce_agrees_with_dense_snf():
    rng = random.Random(43)
    entries = [0, 0, 0, 1, -1, 2, -2, 3, 4, -6]   # non-unit lows are common
    for _ in range(300):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        A = [[rng.choice(entries) for _ in range(n)] for _ in range(m)]
        rank, factors, _ = _integer_reduce(sparse(A))
        snf = smith_normal_form(A)
        assert rank == snf.rank
        assert torsion_of(factors) == torsion_of(snf.factors)


def test_integer_reduce_clears_a_late_unit_pivot_from_the_residual():
    # column 0 ends on a 2 in row 2, so it goes to the residual; column 1
    # then takes row 2 as a unit pivot.  Only after that row is cleared from
    # the residual (leaving 3 in row 0) does its Smith form see the Z/3.
    A = [[1, 1],
         [2, -1],
         [2, -1]]
    rank, factors, pivot_rows = _integer_reduce(sparse(A))
    assert rank == 2 and torsion_of(factors) == (3,)
    assert oracles.invariant_factors(A) == (1, 3)
    # only unit pivots may clear a column one dimension down
    assert pivot_rows == {2}


def test_integer_reduce_reports_unit_pivot_rows_only():
    # the column's low entry is 2: it has rank 1 but clears nothing
    assert _integer_reduce(sparse([[1], [2]])) == (1, (1,), set())
    assert _integer_reduce(sparse([[1, 0], [0, 2]])) == (2, (2,), {0})


def test_kernels_stop_at_the_bound_on_unit_pivots_only():
    # a column left with 2 in row 0 is no unit pivot, so it does not count
    # towards a bound of 1: the next column's 3 still takes the Z/2 away
    assert _integer_reduce(iter([{0: 2}, {0: 3}]), None, 1) == (1, (1,), set())
    assert _integer_reduce(iter([{0: 2}]), None, 1) == (1, (2,), set())
    # once the pivots reach the bound, no further column is taken
    for most in (0, 1):
        pulled = []

        def columns(*cols):
            for col in cols:
                pulled.append(col)
                yield col.copy()

        assert _integer_reduce(columns({1: 1}, {1: 2, 0: 2}), None, most) == \
            (most, (), {1} if most else set())
        assert _gf2_pivots(columns({1}, {0, 1}), None, most)[1] == most
        assert len(pulled) == 2 * most


# -- boundary matrices ---------------------------------------------------------

def test_boundary_squares_to_zero():
    rng = random.Random(7)
    for _ in range(15):
        K = independence_complex(rand_graph(rng, rng.randint(3, 7)))
        for d in range(1, K.dim + 1):
            hi = boundary_matrix(K, d)
            lo = boundary_matrix(K, d - 1)
            lo_cols = {j: dict(col) for j, col in enumerate(lo.columns)}
            for col in hi.columns:
                acc = {}
                for r, s in col:
                    for rr, ss in lo_cols[r].items():
                        acc[rr] = acc.get(rr, 0) + s * ss
                assert all(v == 0 for v in acc.values())


def test_boundary_matrix_matches_slicing_oracle():
    rng = random.Random(17)
    complexes = [independence_complex(rand_graph(rng, rng.randint(1, 9), rng.choice((0.2, 0.5))))
                 for _ in range(25)]
    complexes.append(from_facets(range(1, 7), RP2_FACETS))
    for K in complexes:
        for d in range(0, K.dim + 2):
            rows, cols = (tuple(map(oracles.mask_indices, K.face_masks(e))) for e in (d - 1, d))
            assert boundary_matrix(K, d) == Boundary(len(rows), oracles.boundary_columns(rows, cols))


def test_augmentation_row():
    K = independence_complex(gr.cycle(5))
    b0 = boundary_matrix(K, 0)
    assert b0.n_rows == 1
    assert all(col == ((0, 1),) for col in b0.columns)
    with pytest.raises(ValueError):
        boundary_matrix(K, -1)


def test_gf2_rank_against_naive_elimination():
    rng = random.Random(13)
    cases = []                     # (bitset columns, dense 0/1 matrix)
    for _ in range(40):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        dense = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
        cases.append(([sum(1 << i for i in range(m) if dense[i][j]) for j in range(n)], dense))
    # columns taller than one machine word; after a sparse first column, the
    # rest mix sparse, repeated, all-zero and dependent (XOR of two earlier) ones
    for _ in range(30):
        m = rng.randint(65, 200)
        cols = [1 << rng.randrange(m)]
        for kind in rng.choices(("sparse", "repeat", "zero", "sum"), k=rng.randint(0, 40)):
            if kind == "sparse":
                cols.append(sum(1 << r for r in rng.sample(range(m), rng.randint(1, 4))))
            elif kind == "repeat":
                cols.append(rng.choice(cols))
            elif kind == "zero":
                cols.append(0)
            else:
                cols.append(rng.choice(cols) ^ rng.choice(cols))
        cases.append((cols, [[col >> i & 1 for col in cols] for i in range(m)]))
    # boundary maps of small Ind(G), some over 64 rows; the dense matrices
    # come from brute-force faces, not from boundary_matrix
    rows = []
    for _ in range(20):
        G = rand_graph(rng, rng.randint(6, 10), rng.choice((0.1, 0.2, 0.4)))
        K = independence_complex(G)
        by_dim = oracles.faces_by_dimension(oracles.brute_independent_sets(G))
        for d in range(K.dim + 1):
            b = boundary_matrix(K, d)
            rows.append(b.n_rows)
            cases.append((gf2_columns(b), oracles.boundary_rows(by_dim, d, signed=False)))
    assert max(rows) > 64
    for cols, dense in cases:
        assert gf2_rank(cols) == oracles.rank_gf2(dense)


def test_cycle5_edge_boundary_rank():
    K = independence_complex(gr.cycle(5))
    b1 = boundary_matrix(K, 1)
    assert len(b1.columns) == 5
    assert gf2_rank(gf2_columns(b1)) == 4


# -- Betti numbers -------------------------------------------------------------

def test_betti_examples():
    assert betti_reduced(independence_complex(gr.complete(4))).nonzero() == {0: 3}
    k33 = gr.categorical_product(gr.complete(3), gr.complete(3))
    assert betti_reduced(independence_complex(k33)).nonzero() == {1: 4}
    assert betti_reduced(independence_complex(k33), "int").nonzero() == {1: 4}
    m43 = gr.generalized_mycielskian(gr.complete(3), 4)
    assert betti_reduced(independence_complex(m43)).nonzero() == {2: 6}


def test_betti_of_empty_and_contractible():
    """No vertex, or only looped ones: Ind(G) is {[]}, and its lone empty
    face is a column of its own on every route."""
    for G in (gr.Graph([]), gr.Graph([1], loops=[1])):
        for coefficients in ("z2", "int"):
            table = betti_reduced(independence_complex(G), coefficients)
            assert table.betti == {-1: 1}, (G, coefficients)
            assert graph_betti(G, coefficients) == table and graph_betti(G).faces == 1
        win = betti_window(G, 0, 2)
        assert win.betti == {0: 0, 1: 0, 2: 0} and win.faces == 1, G
    simplex = independence_complex(gr.Graph([1, 2, 3]))
    assert betti_reduced(simplex).nonzero() == {}


def test_betti_rejects_unknown_coefficients():
    with pytest.raises(ValueError):
        betti_reduced(independence_complex(gr.path(2)), "q")


def test_rp2_torsion_dual_route():
    K = from_facets(range(1, 7), RP2_FACETS)
    mod2 = betti_reduced(K, "z2")
    assert mod2.nonzero() == {1: 1, 2: 1}
    integral = betti_reduced(K, "int")
    assert integral.nonzero() == {}
    assert integral.torsion == {1: (2,)}
    # the two coefficient systems disagree exactly where the 2-torsion sits
    assert mod2.value(1) != integral.value(1)


def test_betti_random_dual_route():
    """Mod-2, rational oracle, and the integer path agree (with torsion accounting)."""
    rng = random.Random(101)
    for _ in range(100):
        G = rand_graph(rng, rng.randint(1, 8), p=rng.choice([0.3, 0.5, 0.7]))
        K = independence_complex(G)
        mod2 = betti_reduced(K, "z2")
        integral = betti_reduced(K, "int")
        free = oracles.brute_betti(G, field="q")
        bits = oracles.brute_betti(G, field="gf2")
        for d in range(0, K.dim + 1):
            assert mod2.value(d) == bits[d]
            assert integral.value(d) == free[d]
            # universal coefficients: mod-2 = free + 2-torsion here and below
            tor2 = sum(1 for f in integral.torsion.get(d, ()) if f % 2 == 0)
            tor2 += sum(1 for f in integral.torsion.get(d - 1, ()) if f % 2 == 0)
            assert mod2.value(d) == integral.value(d) + tor2


def _dense_boundaries(G):
    """Face counts and signed dense boundary matrices of Ind(G), by brute force."""
    by_dim = oracles.faces_by_dimension(oracles.brute_independent_sets(G))
    top = max(by_dim)
    faces = {d: len(by_dim.get(d, ())) for d in range(-1, top + 2)}
    dense = {d: oracles.boundary_rows(by_dim, d, signed=True) for d in range(0, top + 2)}
    return top, faces, dense


def _minors_work(A):
    """Determinant terms `oracles.invariant_factors` would expand for A."""
    m, n = len(A), len(A[0]) if A else 0
    return sum(math.comb(m, k) * math.comb(n, k) * math.factorial(k)
               for k in range(1, min(m, n) + 1))


def test_betti_tables_match_dense_oracles():
    """Both rings and every window against ranks and invariant factors of
    dense boundary matrices built from a subset sweep."""
    rng = random.Random(211)
    by_minors = 0
    for _ in range(60):
        G = rand_graph(rng, rng.randint(1, 8), rng.choice((0.2, 0.4, 0.6)))
        top, faces, dense = _dense_boundaries(G)
        rank2 = {d: oracles.rank_gf2(A) if A and A[0] else 0 for d, A in dense.items()}
        rankq = {d: oracles.rank_q(A) if A and A[0] else 0 for d, A in dense.items()}
        torsion = {}
        for d, A in dense.items():
            if not (A and A[0]):
                continue
            if _minors_work(A) <= 20_000:
                factors = oracles.invariant_factors(A)
                by_minors += 1
            else:
                factors = smith_normal_form(A).factors
            if any(f > 1 for f in factors):
                torsion[d - 1] = tuple(f for f in factors if f > 1)

        def oracle_betti(ranks, d):
            return faces[d] - ranks.get(d, 0) - ranks.get(d + 1, 0)

        K = independence_complex(G)
        for route in (partial(betti_reduced, K), partial(graph_betti, G)):
            mod2, integral = route("z2"), route("int")
            for d in range(-1, top + 1):
                assert mod2.value(d) == oracle_betti(rank2, d), (G, d)
                assert integral.value(d) == oracle_betti(rankq, d), (G, d)
            assert integral.torsion == torsion
        for lo in range(0, top + 1):
            for hi in range(lo, top + 2):
                win = betti_window(G, lo, hi)
                assert all(win.value(d) == oracle_betti(rank2, d) for d in range(lo, hi + 1))
    assert by_minors > 100


def test_facet_complexes_with_torsion_match_dense_oracles():
    """Relabelled RP^2, some facets dropped, some cones added: the columns
    and the integer Betti numbers with torsion against a combinations sweep."""
    rng = random.Random(223)
    with_torsion = 0
    for _ in range(30):
        names = rng.sample([*range(1, 12), "a", "b", "z1"], 7)
        relabel = dict(zip(range(1, 7), names))
        facets = [tuple(relabel[v] for v in f) for f in RP2_FACETS]
        facets = rng.sample(facets, rng.choice((10, 10, 9, 8)))
        facets += [f + (names[6],) for f in rng.sample(facets, rng.randint(0, 2))]
        K = from_facets(names, facets)
        closure = {frozenset(c) for f in facets for k in range(len(f) + 1)
                   for c in itertools.combinations(f, k)}
        by_dim = oracles.faces_by_dimension(closure)
        top = max(by_dim)
        torsion, rankq = {}, {}
        for d in range(0, top + 1):
            assert boundary_matrix(K, d) == Boundary(
                len(by_dim[d - 1]), oracles.boundary_columns(by_dim[d - 1], by_dim[d]))
            A = oracles.boundary_rows(by_dim, d, signed=True)
            rankq[d] = oracles.rank_q(A)
            factors = tuple(f for f in smith_normal_form(A).factors if f > 1)
            if factors:
                torsion[d - 1] = factors
        integral = betti_reduced(K, "int")
        for d in range(-1, top + 1):
            assert integral.value(d) == len(by_dim[d]) - rankq.get(d, 0) - rankq.get(d + 1, 0)
        assert integral.torsion == torsion
        with_torsion += bool(torsion)
    assert with_torsion >= 10


def _join(facets_a, facets_b):
    """Facets of the join: each facet of one side beside each of the other."""
    return [tuple(f"a{v}" for v in fa) + tuple(f"b{v}" for v in fb)
            for fa in facets_a for fb in facets_b]


def test_torsion_of_rp2_its_suspension_and_its_self_join():
    rp2 = from_facets(range(1, 7), RP2_FACETS)
    suspension = from_facets(list(range(1, 9)),
                             [f + (apex,) for f in RP2_FACETS for apex in (7, 8)])
    labels = [f"{s}{v}" for s in "ab" for v in range(1, 7)]
    join = from_facets(labels, _join(RP2_FACETS, RP2_FACETS))
    # Kuenneth for joins: Z/2 (x) Z/2 in dimension 1 + 1 + 1, and
    # Tor(Z/2, Z/2) one dimension up
    cases = [(rp2, {1: 1, 2: 1}, {1: (2,)}),
             (suspension, {2: 1, 3: 1}, {2: (2,)}),
             (join, {3: 1, 4: 2, 5: 1}, {3: (2,), 4: (2,)})]
    for K, mod2, torsion in cases:
        assert betti_reduced(K, "z2").nonzero() == mod2
        integral = betti_reduced(K, "int")
        assert integral.nonzero() == {}
        assert integral.torsion == torsion


def test_torsion_through_an_independence_complex():
    """RP^2 subdivided, as Ind of its face poset's incomparability graph: the
    every-column route and the apparent-pair shortcuts meet torsion, and
    again after a suspension."""
    G = oracles.incomparability_graph(RP2_FACETS)
    K = independence_complex(G)
    assert G.vertex_count == 31 and K.f_vector() == (1, 31, 90, 60)
    # Ind(G + K_2) is the join of Ind(G) with S^0, its suspension
    H = gr.Graph([*G.vertices, "x", "y"], [*G.edges, ("x", "y")])
    S = independence_complex(H)
    assert S.total_faces == 546
    for route, base, lifted in ((betti_reduced, K, S), (graph_betti, G, H)):
        integral = route(base, "int")
        assert integral.nonzero() == {} and integral.torsion == {1: (2,)}
        assert route(base, "z2").nonzero() == {1: 1, 2: 1}
        integral = route(lifted, "int")
        assert integral.nonzero() == {} and integral.torsion == {2: (2,)}
        assert route(lifted, "z2").nonzero() == {2: 1, 3: 1}
    assert betti_window(G, 0, 1).betti == {0: 0, 1: 1}


def _counting_columns(monkeypatch):
    """The list of the face masks whose columns homology builds from now on,
    in both rings, apparent ones built on demand included."""
    import indtopo.homology as hom
    built = []

    def counting(column):
        def counted(*args):
            built.append(args[-1])
            return column(*args)
        return counted

    monkeypatch.setattr(hom, "_gf2_column", counting(hom._gf2_column))
    monkeypatch.setattr(hom, "_integer_column", counting(hom._integer_column))
    return built


def test_clearing_skips_the_columns_of_pivot_rows(monkeypatch):
    """Columns are counted where they are built, apparent ones built on demand
    included.  A map of rank r with a apparent columns builds at least r - a,
    and a Betti table builds at most sum_d (f_d - rank d_(d+1)) less the
    apparent columns it counted without building: a face that is a pivot
    row one dimension up is never built.  ``betti_reduced`` counts no
    apparent column; ``graph_betti`` and the windows count Ind(G)'s."""
    built = _counting_columns(monkeypatch)
    rng = random.Random(5)
    graphs = [rand_graph(rng, rng.randint(4, 9), rng.choice((0.2, 0.4))) for _ in range(20)]
    graphs.append(gr.categorical_product(gr.complete(3), gr.complete(4)))
    cleared = needed = 0
    for G in graphs:
        top, faces, dense = _dense_boundaries(G)
        ranks = {"z2": {d: oracles.rank_gf2(A) if A and A[0] else 0 for d, A in dense.items()},
                 "int": {d: oracles.rank_q(A) if A and A[0] else 0 for d, A in dense.items()}}
        K = independence_complex(G)
        by_dim = oracles.faces_by_dimension(oracles.brute_independent_sets(G))
        cases = oracles.column_cases(by_dim)
        case_of = {f: cases[K.labels(f)] for d in range(0, top + 1) for f in K.face_masks(d)}
        apparent = Counter(d for d in range(0, top + 1) for f in K.face_masks(d)
                           if case_of[f] == 1)
        runs = [(0, coefficients, False, partial(betti_reduced, K, coefficients))
                for coefficients in ("z2", "int")]
        runs += [(0, coefficients, True, partial(graph_betti, G, coefficients))
                 for coefficients in ("z2", "int")]
        runs += [(lo, "z2", True, partial(betti_window, G, lo, top)) for lo in range(0, top + 1)]
        for lo, coefficients, shortcuts, run in runs:
            rank, dims = ranks[coefficients], range(lo, top + 1)
            built.clear()
            run()
            unbuilt = least = 0
            if shortcuts:
                unbuilt = sum(apparent[d] for d in dims) - sum(case_of[f] == 1 for f in built)
                least = -sum(apparent[d] for d in dims)
            least += sum(rank[d] for d in dims)
            assert least <= len(built) <= sum(faces[d] - rank[d + 1] for d in dims) - unbuilt, \
                (G, coefficients, lo)
            needed += least
        cleared += sum(ranks["int"][d + 1] for d in range(0, top + 1))
    assert cleared > 0 and needed > 0


def test_rank_bound_stops_each_dimension(monkeypatch):
    """r_d <= c_(d-1): the columns of d stop at as many new pivots as d - 1
    has case-3 faces.  The table-1 window n = 5 has no case-3 2-face, so its
    3-columns are never built: 22 columns in all (518 with no bound, 15,716
    with no apparent pairs either).  Ind(K_7 x K_7) has no case-3 face one
    below any dimension with columns, and builds none over Z (84).  Over Z
    the unit pivots of Ind(K_2 x K_3 x K_3) reach the bound, and it builds
    102 columns (192, and 832 with no apparent pairs)."""
    built = _counting_columns(monkeypatch)
    assert betti_window(_table1_graph(5), 2, 4).nonzero() == {3: 52}
    assert 0 < len(built) <= 30
    built.clear()
    k7k7 = gr.categorical_product(gr.complete(7), gr.complete(7))
    assert graph_betti(k7k7, "int").nonzero() == {1: 36}
    assert built == []
    assert graph_betti(_table1_graph(3), "int").nonzero() == {3: 14}
    assert 0 < len(built) <= 120


def test_rank_bound_changes_no_result_and_no_new_pivot(monkeypatch):
    """The kernel with the bound and with none (``most=None``) gives equal
    Betti numbers and torsion, and the same rows for the new pivots of every
    dimension (the unit ones over Z), on seeded graphs with loops in both
    rings and their windows, on their complexes rebuilt from facets, on
    relabelled RP^2 with cones added, and on RP^2 through an independence
    complex; the bound saves columns, and never builds one more."""
    import indtopo.homology as hom
    gf2_pivots, integer_reduce = hom._gf2_pivots, hom._integer_reduce
    built, lows, bounded = _counting_columns(monkeypatch), [], [True]

    def gf2(columns, apparent=None, most=None):
        pivots, new = gf2_pivots(columns, apparent, most if bounded[0] else None)
        counted = len(built)    # telling the lows apart builds apparent columns
        lows.append({r for r in pivots if not (apparent and apparent(r))})
        del built[counted:]
        return pivots, new

    def integer(columns, apparent=None, most=None):
        out = integer_reduce(columns, apparent, most if bounded[0] else None)
        lows.append(set(out[2]))
        return out

    monkeypatch.setattr(hom, "_gf2_pivots", gf2)
    monkeypatch.setattr(hom, "_integer_reduce", integer)
    runs = []
    rng = random.Random(61)
    for G in _looped_graphs(61, 300, 11):
        K = independence_complex(G)
        facets = from_facets(K.vertices, K.facets())
        runs += [partial(route, coefficients) for coefficients in ("z2", "int")
                 for route in (partial(graph_betti, G), partial(betti_reduced, facets))]
        lo = rng.randint(0, max(K.dim, 0))
        runs.append(partial(betti_window, G, lo, rng.randint(lo, K.dim + 1)))
    for _ in range(20):
        names = rng.sample([*range(1, 12), "a", "b"], 7)
        facets = [tuple(names[v - 1] for v in f) for f in RP2_FACETS]
        facets = rng.sample(facets, rng.choice((10, 10, 9))) + [
            f + (names[6],) for f in rng.sample(facets, rng.randint(0, 2))]
        runs += [partial(betti_reduced, from_facets(names, facets), coefficients)
                 for coefficients in ("z2", "int")]
    G = oracles.incomparability_graph(RP2_FACETS)
    runs += [partial(graph_betti, G, coefficients) for coefficients in ("z2", "int")]
    saved = torsion = 0
    for run in runs:
        seen = []
        for bounded[0] in (True, False):
            lows.clear()
            built.clear()
            table = run()
            seen.append((table.betti, table.torsion, list(lows), len(built)))
        assert seen[0][:3] == seen[1][:3], run
        assert seen[0][3] <= seen[1][3], run
        saved += seen[1][3] - seen[0][3]
        torsion += bool(seen[0][1])
    assert saved > 1_000 and torsion >= 10


def test_small_tables_skip_empty_dimensions_and_empty_residuals(monkeypatch):
    """A dimension with no case-3 column calls no kernel, and an integer
    reduction with no residual computes no Smith form: Ind(K_7 x K_7) over Z
    enters the kernel once, at its one dimension with columns, and
    Ind(K_2 x K_3 x K_3) twice; neither reaches a Smith form.  A residual
    still does: RP^2 suspended keeps its Z/2."""
    import indtopo.homology as hom
    calls = Counter()

    def counted(name):
        real = getattr(hom, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(hom, name, wrapper)

    for name in ("smith_normal_form", "_integer_reduce", "_gf2_pivots"):
        counted(name)
    products = [(_table1_graph(3), "int", {3: 14}, 1_650, 2, 0),
                (gr.categorical_product(gr.complete(7), gr.complete(7)), "int", {1: 36}, 1_730,
                 1, 0),
                (gr.categorical_product(gr.complete(5), gr.complete(5)), "z2", {1: 16}, 286, 0, 1)]
    for G, coefficients, betti, faces, reduces, pivots in products:
        calls.clear()
        table = graph_betti(G, coefficients)
        assert (table.nonzero(), table.torsion, table.faces) == (betti, {}, faces), G
        assert calls == Counter(_integer_reduce=reduces, _gf2_pivots=pivots), G
    calls.clear()
    table = graph_betti(_rp2_suspensions(1), "int")
    assert table.torsion == {2: (2,)} and calls["smith_normal_form"] >= 1


def _looped_graphs(seed, count, max_n, densities=(0.2, 0.4, 0.6), min_n=1):
    rng = random.Random(seed)
    for _ in range(count):
        verts = list(range(1, rng.randint(min_n, max_n) + 1))
        p = rng.choice(densities)
        yield gr.Graph(verts, [e for e in itertools.combinations(verts, 2) if rng.random() < p],
                       [v for v in verts if rng.random() < 0.15])


def _table1_graph(n):
    return gr.categorical_product(
        gr.categorical_product(gr.complete(2), gr.complete(3)), gr.complete(n))


def _case3_faces(full, cases, d):
    """The case-3 d-faces of a complex in store order; the empty face is case
    3 only when there is no vertex."""
    if d == -1:
        return [] if full.face_count(0) else [0]
    return [f for f in full.face_masks(d) if cases[full.labels(f)] == 3]


def _first_cofacet_cases(G):
    return oracles.column_cases(oracles.faces_by_dimension(oracles.brute_independent_sets(G)))


def _relabels(G, counts):
    """Whether the walk takes _walk_order, given the faces it counted."""
    return sum(counts) >= _RELABEL_AT * len(_independence_masks(G)[1]) ** 2


def _check_walk(G, full, cases, top):
    """The walk up to dimension top keeps exactly the case-3 faces in every
    dimension, and counts every face of each size up to top + 1; full and
    cases are G's.  Where the walk relabels, its faces are checked against
    the oracle of G relabelled by _walk_order, whose masks it returns.
    Returns whether it relabelled."""
    last = full.dim + 1 if top is None else top + 1
    columns, counts, walked = _classified_skeleton(G, top, None)
    if relabels := _relabels(G, counts):
        G = _walk_ordered(G)
        full, cases = independence_complex(G), _first_cofacet_cases(G)
    assert list(walked) == list(_independence_masks(G)[1]), (G, top)
    for d in range(-1, last):
        assert columns.get(d, []) == _case3_faces(full, cases, d), (G, top, d)
    assert set(columns) <= set(range(-1, last)), (G, top)
    sizes = counts + [0] * (last + 1 - len(counts))
    assert sizes[:last + 1] == [full.face_count(k - 1) for k in range(last + 1)], (G, top)
    assert not any(sizes[last + 1:]), (G, top)
    return relabels


def test_column_cases_match_the_first_cofacet_oracle():
    """The walk over the whole of Ind(G) (top None) keeps the case-3 faces of
    its twin read off sorted face lists, and counts the f-vector, on seeded
    graphs with loops.  Dropping the case-2 columns keeps each map's dense
    rank, and every Betti route equals the route without shortcuts (the
    same faces through from_facets)."""
    seen = Counter()
    for G in _looped_graphs(307, 300, 11, (0.3, 0.5, 0.7)):
        full = independence_complex(G)
        by_dim = oracles.faces_by_dimension(oracles.brute_independent_sets(G))
        cases = oracles.column_cases(by_dim)
        _check_walk(G, full, cases, None)
        for d in range(0, full.dim + 1):
            want = [cases[full.labels(f)] for f in full.face_masks(d)]
            seen.update(want)
            A = oracles.boundary_rows(by_dim, d, signed=True)
            kept = [[v for v, case in zip(row, want) if case != 2] for row in A]
            assert oracles.rank_gf2(kept) == oracles.rank_gf2(A), (G, d)
            if len(want) <= 40:     # exact Fractions are slow on larger maps
                assert oracles.rank_q(kept) == oracles.rank_q(A), (G, d)
        F = from_facets(full.vertices, full.facets())
        for coefficients in ("z2", "int"):
            assert graph_betti(G, coefficients) == betti_reduced(F, coefficients), G
            assert betti_reduced(full, coefficients) == betti_reduced(F, coefficients), G
        whole = betti_reduced(F)
        for lo in range(0, full.dim + 1):
            for hi in range(lo, full.dim + 2):
                win = betti_window(G, lo, hi)
                assert all(win.value(d) == whole.value(d) for d in range(lo, hi + 1)), (G, lo, hi)
    assert min(seen[1], seen[2], seen[3]) > 100


def test_window_walk_classifies_like_the_first_cofacet_oracle():
    """For every window top, the walk keeps the oracle's case-3 faces in
    every dimension up to the top and counts the f-vector that far, on
    windows it walks in G's own order and on some it relabels."""
    seen, relabels = Counter(), Counter()
    for G in _looped_graphs(401, 200, 11):
        full = independence_complex(G)
        cases = _first_cofacet_cases(G)
        seen.update(cases.values())
        for top in range(1, full.dim + 3):
            relabels[_check_walk(G, full, cases, top)] += 1
    assert min(seen[1], seen[2], seen[3]) > 100
    assert relabels[False] >= 100 and relabels[True] >= 5, relabels


def _relabelled(G, order):
    """G without its looped vertices, renamed so that its canonical order is
    ``order`` (of the unlooped vertices' indices): order[i] becomes v<i>."""
    nbr = _independence_masks(G)[1]
    name = [""] * len(order)
    for i, v in enumerate(order):
        name[v] = f"v{i:03d}"
    return gr.Graph(sorted(name), [(name[u], name[w]) for u, m in enumerate(nbr)
                                   for w in bits(m) if u < w])


def _walk_ordered(G):
    return _relabelled(G, _walk_order(_independence_masks(G)[1]))


def _rp2_suspensions(k):
    """The RP^2 graph (Ind: RP^2 subdivided, Z/2 in dimension 1) beside k
    copies of K_2: Ind is its k-fold suspension."""
    G = oracles.incomparability_graph(RP2_FACETS)
    pairs = [(f"x{i}", f"y{i}") for i in range(k)]
    return gr.Graph([*G.vertices, *itertools.chain(*pairs)], [*G.edges, *pairs])


def _sparse_graphs(seed, count):
    """Seeded graphs of 10-14 vertices, a few looped, sparse enough that
    many have the _RELABEL_AT * n^2 faces on n unlooped vertices at which
    the walk takes its own order."""
    return _looped_graphs(seed, count, 14, (0.05, 0.1), min_n=10)


def test_walk_order_is_a_deterministic_permutation():
    """_walk_order is a permutation of the unlooped vertices, the same on
    every call, and a graph relabelled by it is already in it; on
    K_2 x K_3 x K_5 it puts the six vertices sharing a K_5 coordinate first."""
    graphs = [*_looped_graphs(503, 300, 12), *map(_table1_graph, range(2, 6)),
              _rp2_suspensions(4)]
    for G in graphs:
        nbr = _independence_masks(G)[1]
        order = _walk_order(nbr)
        assert sorted(order) == list(range(len(nbr))), G
        assert _walk_order(list(nbr)) == order, G
        assert _walk_order(_independence_masks(_relabelled(G, order))[1]) == sorted(order), G
    G = _table1_graph(5)
    first = [G.vertices[i] for i in _walk_order(_independence_masks(G)[1])[:6]]
    assert len({v[1] for v in first}) == 1 and len(set(first)) == 6


def test_walk_in_its_own_order_keeps_the_oracle_case3_faces():
    """With G relabelled by _walk_order, the walk keeps exactly the case-3
    faces read off the relabelled graph's sorted face lists, and counts its
    f-vector, on the seeded sweep of 1,500 graphs with loops and 40 sparse
    ones of 10-14 vertices: the relabelled graph is already in that order,
    so the walk takes it whether or not it relabels.  Where the walk
    relabels G itself (some of the sparse ones), it returns the relabelled
    graph's masks, and G's own otherwise."""
    relabels = 0
    for G in itertools.chain(_looped_graphs(503, 1500, 12), _sparse_graphs(509, 40)):
        H = _walk_ordered(G)
        full = independence_complex(H)
        cases = _first_cofacet_cases(H)
        _check_walk(H, full, cases, None)
        nbr = _independence_masks(G)[1]
        walked = _classified_skeleton(G, None, None)[2]
        if full.total_faces >= _RELABEL_AT * len(nbr) ** 2:
            assert walked == list(H._adj), G
            relabels += bool(nbr)
        else:
            assert walked == nbr, G
    assert relabels >= 10


def test_betti_routes_agree_on_a_graph_and_in_its_walk_order():
    """graph_betti over Z/2 and Z, and betti_window, give the same Betti
    numbers, torsion and face counts on G as on G relabelled by _walk_order,
    and the same as betti_reduced of the stored complex: on seeded graphs
    with loops, sparse ones among them, on the RP^2 graph and its
    suspensions by up to four K_2 (torsion Z/2; the walk relabels the
    fourth), and on K_2 x K_3 x K_n, n <= 4 (it relabels n = 3, 4)."""
    graphs = [*_looped_graphs(601, 150, 12), *_sparse_graphs(607, 15),
              *map(_rp2_suspensions, range(5)), *map(_table1_graph, range(2, 5))]
    torsion = 0
    for G in graphs:
        H = _walk_ordered(G)
        K = independence_complex(G)
        for coefficients in ("z2", "int"):
            want = betti_reduced(K, coefficients)
            for X in (G, H):
                got = graph_betti(X, coefficients)
                # BettiTable equality compares the torsion, not the faces
                assert (got, got.faces) == (want, K.total_faces), (G, X, coefficients)
            torsion += bool(want.torsion)
        for lo in range(0, min(K.dim, 3) + 1):
            hi = min(lo + 2, K.dim + 1)
            want = betti_window(G, lo, hi)
            stored = betti_reduced(faces_in_window(G, lo, hi))
            assert want.betti == {d: stored.value(d) for d in range(lo, hi + 1)}, (G, lo, hi)
            got = betti_window(H, lo, hi)
            assert (got, got.faces) == (want, want.faces), (G, lo, hi)
    assert torsion >= 5


def test_integer_windows_cut_the_full_range_table():
    """graph_betti over Z in a window (lo, hi), lo 0..3 and hi up to lo + 2,
    gives the full-range integer table's Betti numbers and torsion in dims
    lo..hi, and betti_window's face count, on seeded graphs with loops; and
    in every window of the RP^2 graph and its suspensions by up to two K_2,
    whose Z/2 sits inside, at either edge of, or outside the window."""
    def check(G, windows):
        full = graph_betti(G, "int")
        for lo, hi in windows:
            win = graph_betti(G, "int", None, (lo, hi))
            assert win.betti == {d: full.betti.get(d, 0) for d in range(lo, hi + 1)}, (G, lo, hi)
            assert win.torsion == {d: t for d, t in full.torsion.items() if lo <= d <= hi}, \
                (G, lo, hi)
            assert win.faces == betti_window(G, lo, hi).faces, (G, lo, hi)
        return bool(full.torsion)

    small = [(lo, hi) for lo in range(4) for hi in range(lo, lo + 3)]
    for G in _looped_graphs(709, 200, 11):
        check(G, small)
    for k in range(3):
        G = _rp2_suspensions(k)
        top = independence_complex(G).dim + 1
        assert check(G, [(lo, hi) for lo in range(top + 1) for hi in range(lo, top + 1)])


def _budget_outcome(build, budget):
    try:
        build(budget)
    except FaceBudgetError as e:
        return str(e)
    return None


def test_window_route_equals_the_stored_skeleton_route():
    """Every window 0 <= lo <= hi <= 4, and the table-1 windows: the same
    Betti numbers and face count as ``betti_reduced`` of the stored
    skeleton, and the same face-budget outcome as ``faces_in_window`` just
    below and at the number of faces enumerated."""
    cases = [(G, lo, hi) for G in _looped_graphs(409, 60, 10)
             for lo in range(0, 5) for hi in range(lo, 5)]
    cases += [(_table1_graph(n), 2, 4) for n in range(2, 6)]
    for G, lo, hi in cases:
        fw = faces_in_window(G, lo, hi)
        win = betti_window(G, lo, hi)
        whole = betti_reduced(fw)
        assert win.betti == {d: whole.value(d) for d in range(lo, hi + 1)}, (G, lo, hi)
        assert win.faces == sum(fw.face_count(d) for d in range(lo - 1, hi + 2))
        enumerated = fw.total_faces - 1
        outcomes = []
        for budget in (enumerated - 1, enumerated):
            outcome = _budget_outcome(lambda b: betti_window(G, lo, hi, face_budget=b), budget)
            assert outcome == _budget_outcome(
                lambda b: faces_in_window(G, lo, hi, face_budget=b), budget), (G, lo, hi, budget)
            outcomes.append(outcome)
        assert outcomes[1] is None and (outcomes[0] is None) == (enumerated == 0)
    with pytest.raises(ValueError, match=r"bad window \(3, 1\)"):
        betti_window(gr.cycle(5), 3, 1)


def _profiled(fn, calls):
    """fn(), counting the calls it makes by function name in ``calls``."""
    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        return fn()
    finally:
        sys.setprofile(None)


def _polynomial_args(G, last, budget):
    _, nbr = _independence_masks(G)
    full = (1 << len(nbr)) - 1
    return [full & ~m for m in nbr], len(nbr) if last is None else last, budget


def test_face_polynomial_counts_the_brute_force_f_vector():
    """At every size cap the memoised f-polynomial counts the faces of each
    size that the subset sweep finds, on seeded graphs with loops.  Its memo
    never trips a budget of the nonempty faces counted, and one less trips
    with the budget message."""
    calls = 0
    for G in _looped_graphs(503, 1500, 12):
        sizes = Counter(map(len, oracles.brute_independent_sets(G)))
        for cap in range(len(_independence_masks(G)[1]) + 1):
            want = [sizes[k] for k in range(cap + 1)]
            faces = sum(want) - 1
            assert _face_polynomial(*_polynomial_args(G, cap, faces)) == want, (G, cap)
            if faces:
                with pytest.raises(FaceBudgetError,
                                   match=f"^face budget exceeded: {faces} > {faces - 1}$"):
                    _face_polynomial(*_polynomial_args(G, cap, faces - 1))
            calls += 1
    assert calls > 9_000


def _suite_family_specs(top_n):
    """The 132 family instances of the default suites, then K_2 x K_3 x K_n
    for n = 2..top_n, each spec once."""
    from indtopo.families import FamilySpec
    from indtopo.verify import SUITES

    specs = [FamilySpec(*args) for _, jobs, _ in SUITES.values()
             for kind, args, _ in jobs({"seed": 7, "face_budget": None})
             if kind in ("family", "family_int")]
    assert len(specs) == 132
    return list(dict.fromkeys(
        specs + [FamilySpec("conjecture_k2k3kn", (n,)) for n in range(2, top_n + 1)]))


def test_face_polynomial_meets_the_euler_characteristic_of_each_closed_form():
    """The reduced Euler characteristic read off the f-polynomial equals
    sum_d (-1)^d b_d of the predicted wedge, for every family instance of
    the default suites (132 of them) and for K_2 x K_3 x K_n, n <= 20: a
    check that shares nothing with the type rules but their Betti numbers."""
    from indtopo.families import build_graph
    from indtopo.homotopy import predict

    for spec in _suite_family_specs(20):
        counts = _face_polynomial(*_polynomial_args(build_graph(spec), None, 10 ** 40))
        euler = sum(c if k % 2 else -c for k, c in enumerate(counts))   # k = d + 1
        betti = predict(spec).homotopy.betti()
        assert euler == sum(-b if d % 2 else b for d, b in betti.items()), spec


def test_face_polynomial_counts_the_enumerated_faces_past_the_oracle():
    """Past the subset sweep's 12 vertices, on the 132 family instances of
    the default suites and K_2 x K_3 x K_n, n <= 8 (up to 48 vertices), the
    count at each size cap 1..7 is the first cap + 1 entries of the
    uncapped count and the enumerator's face count of each size (every one
    of these skeletons fits the default budget).  A budget of exactly its
    nonempty faces never trips, and one less trips with the budget message."""
    from indtopo.families import build_graph

    for spec in _suite_family_specs(8):
        keep, n, _ = _polynomial_args(build_graph(spec), None, None)
        whole = _face_polynomial(keep, n, 10 ** 40) + [0] * 7
        sizes = [len(fs) for fs in _enumerate_independent(keep, 7)]
        assert sum(sizes) - 1 <= DEFAULT_FACE_BUDGET, spec
        for cap in range(1, 8):
            faces = sum(sizes[:cap + 1]) - 1
            assert _face_polynomial(keep, cap, faces) == whole[:cap + 1] == sizes[:cap + 1], \
                (spec, cap)
            with pytest.raises(FaceBudgetError,
                               match=f"^face budget exceeded: {faces} > {faces - 1}$"):
                _face_polynomial(keep, cap, faces - 1)


def test_betti_routes_trip_the_face_budget_before_walking():
    """Ind(K_2 x K_3 x K_20) has 127,181,295 faces up to dimension 5, the
    empty face included, over the default budget: the Betti routes and the
    stored ones raise the budget message from the count alone, with no face
    walked or stored, and at a tenth of the budget the count allocates
    next to nothing."""
    G = _table1_graph(20)
    assert sum(_face_polynomial(*_polynomial_args(G, 6, 10 ** 9))) == 127_181_295
    for route in (partial(betti_window, G, 2, 4), partial(graph_betti, G),
                  partial(independence_complex, G), partial(faces_in_window, G, 2, 4)):
        calls = Counter()
        with pytest.raises(FaceBudgetError, match="^face budget exceeded: 50000001 > 50000000$"):
            _profiled(route, calls)
        assert calls["_face_polynomial"] == 1 and calls["visit"] == calls["rec"] == 0, route
    tracemalloc.start()
    try:
        with pytest.raises(FaceBudgetError, match="^face budget exceeded: 5000001 > 5000000$"):
            independence_complex(G, face_budget=5_000_000)
        assert tracemalloc.get_traced_memory()[1] < 5_000_000
    finally:
        tracemalloc.stop()


def test_stored_routes_skip_the_count_under_the_lowest_vertex_bound(monkeypatch):
    """A nonempty face is its lowest vertex v and a set of S_v, the vertices
    above v not adjacent to it, so sum_v 2^|S_v| bounds the faces, and the
    stored routes count only when that bound and 2^n - 1 both exceed the
    budget: on seeded graphs with loops the bound is at least the subset
    sweep's face count, the count runs exactly then, and a budget one
    below the faces still trips.  Ind(K_9 x K_9) is built with no count;
    Ind(K_2 x K_3 x K_20) still counts once and trips."""
    calls = Counter()
    _profiled(partial(independence_complex, gr.categorical_product(gr.complete(9), gr.complete(9))),
              calls)
    assert calls["_face_polynomial"] == 0 and calls["rec"] > 0
    calls.clear()
    with pytest.raises(FaceBudgetError, match="^face budget exceeded: 5000001 > 5000000$"):
        _profiled(partial(independence_complex, _table1_graph(20), face_budget=5_000_000), calls)
    assert calls["_face_polynomial"] == 1 and calls["rec"] == 0
    import indtopo.complexes as cx
    count, counted = cx._face_polynomial, []
    monkeypatch.setattr(cx, "_face_polynomial", lambda *args: counted.append(1) or count(*args))
    skipped = 0
    for G in _looped_graphs(509, 400, 12):
        keep, n, _ = _polynomial_args(G, None, None)
        bound = sum(1 << (m >> v + 1).bit_count() for v, m in enumerate(keep))
        faces = len(oracles.brute_independent_sets(G)) - 1
        assert faces <= bound, G
        for budget in {faces, bound}:
            counted.clear()
            assert independence_complex(G, face_budget=budget).total_faces == faces + 1
            assert len(counted) == (bound > budget < 2 ** n - 1), (G, budget)
            skipped += budget < 2 ** n - 1 and not counted
        if faces:
            with pytest.raises(FaceBudgetError, match=f"^face budget exceeded: {faces} > "):
                independence_complex(G, face_budget=faces - 1)
    assert skipped > 100


class _CountingReads(list):
    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_wide_face_count_trips_at_the_first_entry_over_the_budget():
    """Up to size 4, Ind(P_300) has about 3 * 10^8 faces, yet its count is
    shallow and never reaches the depth bound.  Below the root, the first
    memo entry to count over 10^6 sets, each a face with the vertices
    taken, trips a budget of 10^6 there, after under a quarter of the
    reads of ``keep`` that the whole count makes."""
    G = gr.path(300)
    keep = _polynomial_args(G, 4, None)[0]
    whole = _CountingReads(keep)
    assert sum(_face_polynomial(whole, 4, 10 ** 10)) > 10 ** 8
    tripped = _CountingReads(keep)
    with pytest.raises(FaceBudgetError, match="^face budget exceeded: 1000001 > 1000000$"):
        _face_polynomial(tripped, 4, 10 ** 6)
    assert 0 < tripped.reads < whole.reads // 4, (tripped.reads, whole.reads)


def test_table1_window_stores_only_the_top_columns_it_builds():
    """The 25,002 faces of Ind(K_2 x K_3 x K_5) up to dimension 5 are
    counted in 437 calls of the f-polynomial on G's own masks; the window
    (2, 4) walks 119 in the walk's order (403 in G's) and stores only the
    case-3 ones whose columns it may build, 68 (604 in G's); the verify
    record still counts every face of dimensions 1..5."""
    from indtopo.verify import check_table1_row

    G = _table1_graph(5)
    calls = Counter()
    columns, counts, _ = _profiled(partial(_classified_skeleton, G, 5, None), calls)
    assert sum(counts) == 25_002 and counts[6] == 11_245
    assert calls["poly"] <= 450 and calls["visit"] <= 130
    assert sum(map(len, columns.values())) <= 100
    rec = check_table1_row(5)
    assert rec.match and rec.faces == 24_971
    gc.collect()
    gc.disable()
    try:
        assert betti_window(G, 2, 4).nonzero() == {3: 52}
        with pytest.raises(FaceBudgetError):
            betti_window(G, 2, 4, face_budget=20_000)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_walk_visits_grow_with_the_case3_faces_not_the_complex():
    """The walk skips every child whose D, the vertices below its lowest
    vertex free for the rest and adjacent to it, is empty, as no face below
    it is case 3: the K_2 x K_3 x K_15 window (2, 4) keeps 658 faces of
    21,708,933 in dimensions 1..5 in at most 950 visits (26,565 without
    the rule), and graph_betti of gadget 6 7 makes at most 560 (32,681).
    The window's count makes at most 12,500 f-polynomial calls (11,797;
    26,544 summing the children from the lowest vertex up)."""
    from indtopo.families import FamilySpec, build_graph

    calls = Counter()
    columns, counts, _ = _profiled(partial(_classified_skeleton, _table1_graph(15), 5, None),
                                   calls)
    assert sum(map(len, columns.values())) == 658 and sum(counts[2:]) == 21_708_933
    assert calls["visit"] <= 950 and calls["poly"] <= 12_500
    calls.clear()
    got = _profiled(partial(graph_betti, build_graph(FamilySpec("gadget", (6, 7)))), calls)
    assert got.nonzero() == {4: 125} and calls["visit"] <= 560


def test_walk_order_is_built_only_where_the_walk_dominates():
    """The walk takes _walk_order only once the faces counted reach
    _RELABEL_AT n^2 on n unlooped vertices (4 n^2): for the table-1 windows
    n = 3, 4, 5 (1,558, 6,871 and 25,002 faces counted, 18, 24 and 30
    vertices), not for the n = 2 window (324 faces on 12 vertices) nor for
    Ind(K_7 x K_7) (1,730 faces on 49 vertices)."""
    k7k7 = gr.categorical_product(gr.complete(7), gr.complete(7))
    for G, top, built in ((_table1_graph(3), 5, 1), (_table1_graph(4), 5, 1),
                          (_table1_graph(5), 5, 1), (_table1_graph(2), 5, 0),
                          (k7k7, None, 0)):
        calls = Counter()
        counts = _profiled(partial(_classified_skeleton, G, top, None), calls)[1]
        assert calls["_walk_order"] == built == _relabels(G, counts), G


def test_walk_order_takes_near_twins_of_the_last_vertex_next():
    """On K_2 x K_3 x K_3 most of _walk_order's choices are ties between
    the two K_3 factors; breaking them by the neighbours shared with the
    vertex just taken, the n = 3 window relabels and keeps 22 case-3 faces
    (58 in G's own order or on lowest-index ties), and n = 4, 5, 6 keep 42,
    68 and 100.  Over Z the n = 3 row is still b_3 = 14, torsion-free."""
    for n, kept in ((3, 22), (4, 42), (5, 68), (6, 100)):
        calls = Counter()
        columns = _profiled(partial(_classified_skeleton, _table1_graph(n), 5, None), calls)[0]
        assert sum(map(len, columns.values())) == kept and calls["_walk_order"] == 1, n
    got = graph_betti(_table1_graph(3), "int")
    assert got.nonzero() == {3: 14} and not got.torsion and got.faces == 1_650


def test_euler_from_betti_matches_face_count_sweep():
    rng = random.Random(55)
    for _ in range(30):
        K = independence_complex(rand_graph(rng, rng.randint(1, 8)))
        chi = K.euler_characteristic_reduced()
        for coefficients in ("z2", "int"):
            euler = betti_reduced(K, coefficients).euler()
            assert euler == chi and type(euler) is int


# -- windowed homology -----------------------------------------------------------

def test_windowed_agrees_with_full_range():
    rng = random.Random(77)
    graphs = [rand_graph(rng, rng.randint(2, 8)) for _ in range(12)]
    graphs += [gr.cycle(7), gr.generalized_mycielskian(gr.complete(3), 3)]
    for G in graphs:
        K = independence_complex(G)
        full = betti_reduced(K)
        top = max(K.dim, 0)
        for lo in range(0, top + 1):
            for hi in range(lo, top + 1):
                win = betti_window(G, lo, hi)
                assert win.window == (lo, hi)
                for d in range(lo, hi + 1):
                    assert win.value(d) == full.value(d), (G, lo, hi, d)


def test_windowed_table_guards_out_of_window_reads():
    win = betti_window(gr.cycle(9), 1, 2)
    assert win.value(2) == 2
    with pytest.raises(ValueError):
        win.value(0)
    with pytest.raises(ValueError):
        win.euler()


def test_windowed_product_example():
    G = gr.categorical_product(
        gr.categorical_product(gr.complete(2), gr.complete(3)), gr.complete(2))
    win = betti_window(G, 2, 4)
    assert {d: win.value(d) for d in (2, 3, 4)} == {2: 0, 3: 4, 4: 0}


def test_windowed_beyond_top_dimension():
    # C_4 tops out at dimension 1; a window above it reports zeros
    win = betti_window(gr.cycle(4), 3, 5)
    assert {d: win.value(d) for d in (3, 4, 5)} == {3: 0, 4: 0, 5: 0}


# -- the table container ---------------------------------------------------------

def test_matches_full_range():
    t = BettiTable({0: 0, 1: 2, 2: 0}, "z2")
    assert t.matches({1: 2})
    assert not t.matches({1: 2, 3: 1})
    assert not t.matches({})


def test_matches_windowed_ignores_outside():
    t = BettiTable({2: 0, 3: 5, 4: 0}, "z2", window=(2, 4))
    assert t.matches({3: 5})
    assert t.matches({3: 5, 7: 9})     # outside the window: not asserted
    assert not t.matches({3: 4})


def test_render_and_rows():
    t = BettiTable({0: 0, 1: 3}, "z2")
    assert t.render() == "b1=3"
    assert BettiTable({0: 0}, "z2").render() == "all zero"
    rows = t.csv_rows()
    assert rows[0] == "dimension,betti,torsion"
    assert "1,3," in rows
