"""Brute-force reference routes used to cross-check the library.

Everything here favors obviousness over speed: independent sets come from a
full subset sweep, cone links from trying every apex against every face,
ranks from naive Gaussian elimination on dense matrices (ints mod 2, or
exact Fractions), invariant factors from gcds of minors, the cases of
boundary columns from first cofacets found in the sorted face lists,
isomorphism from a permutation sweep, Morse acyclicity from stripping sinks
off the whole modified Hasse diagram, ordered matchings from sweeping the
whole face pool per element, and the canonical graph order from sorting
rendered label strings, the reduction lemmas from Graph surgery that
builds a new graph at every step, and reduce()'s rule searches on masks
from trying one candidate vertex, pair or apex at a time.  Products,
Mycielskians and gadgets are built from label pairs and label edge lists
through the validating Graph constructor, as are complete graphs, paths,
cycles, looped paths, cycle ladders, every named family and the seeded random
graphs, and the crossing and triangle searches walk label sets.
Nothing below imports library internals beyond the Graph container, the
label renderer and the homotopy-type algebra (the values reduce() returns),
so a bug in the fast code paths cannot hide here.
"""

import bisect
import functools
import itertools
import math
from fractions import Fraction

from indtopo.graphs import Graph, render_label
from indtopo.homotopy import HomotopyType, Stuck, suspend, wedge_all

# the 6-vertex triangulation of the real projective plane: the standard
# torsion specimen (mod-2 sees dimensions 1 and 2, the integers see Z/2)
RP2_FACETS = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
              (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]


def brute_independent_sets(G: Graph):
    """All independent sets (no edge inside, no looped vertex), empty set included."""
    verts = [v for v in G.vertices if not G.is_looped(v)]
    out = []
    for r in range(len(verts) + 1):
        for combo in itertools.combinations(verts, r):
            if all(not G.has_edge(a, b) for a, b in itertools.combinations(combo, 2)):
                out.append(frozenset(combo))
    return out


def link_is_cone(G: Graph, v) -> bool:
    """Whether lk(v) = Ind(G - N[v]) is a cone: some vertex w with every face + w a face."""
    hood = set(G.neighbors(v)) | {v}
    H = Graph([u for u in G.vertices if u not in hood],
              [e for e in G.edges if not hood & set(e)],
              [u for u in G.loops if u not in hood])
    faces = set(brute_independent_sets(H))
    apexes = set().union(*faces)
    return any(all(f | {w} in faces for f in faces) for w in apexes)


def faces_by_dimension(faces):
    """Group label-set faces by dimension, each list in a canonical order."""
    by = {}
    for f in faces:
        by.setdefault(len(f) - 1, []).append(tuple(sorted(f, key=render_label)))
    key = lambda f: [render_label(v) for v in f]
    return {d: sorted(fs, key=key) for d, fs in sorted(by.items())}


def incomparability_graph(facets) -> Graph:
    """The graph on the nonempty faces the facets span, named like v1_2_3, with
    an edge between every two faces neither of which contains the other.

    Its independence complex is the order complex of the face poset: the
    barycentric subdivision of the complex the facets span.
    """
    faces = {frozenset(c) for f in facets for k in range(1, len(f) + 1)
             for c in itertools.combinations(f, k)}
    name = {f: "v" + "_".join(map(str, sorted(f))) for f in faces}
    return Graph(name.values(), [(name[a], name[b]) for a, b in itertools.combinations(faces, 2)
                                 if not (a <= b or b <= a)])


def canonical_graph(vertices, edges=(), loops=()):
    """(vertices, edges, loops) in canonical order, by comparing rendered strings.

    Each edge is written with its smaller rendered endpoint first; vertices,
    edges and loops are sorted on the rendered labels.
    """
    key = render_label
    edge_set = {tuple(sorted(e, key=key)) for e in edges}
    return (tuple(sorted(vertices, key=key)),
            tuple(sorted(edge_set, key=lambda e: (key(e[0]), key(e[1])))),
            tuple(sorted(set(loops), key=key)))


def boundary_rows(by_dim, d, signed):
    """Dense matrix of the boundary map from dimension d to d-1.

    Rows are (d-1)-faces, columns d-faces.  At d = 0 the single row is the
    empty face, which every vertex contains (the augmentation).
    """
    cols = by_dim.get(d, [])
    rows = by_dim.get(d - 1, [()] if d == 0 else [])
    rix = {f: i for i, f in enumerate(rows)}
    dense = [[0] * len(cols) for _ in rows]
    for j, f in enumerate(cols):
        for k in range(len(f)):
            sub = f[:k] + f[k + 1:]
            dense[rix[sub]][j] = (-1) ** k if signed else 1
    return dense


def boundary_columns(rows, cols):
    """Sparse boundary columns of the faces ``cols`` over the faces ``rows``.

    Column j lists (row of cols[j] minus its k-th entry, (-1)^k) for
    k = 0, 1, ..., each facet found by slicing.
    """
    rix = {f: i for i, f in enumerate(rows)}
    return tuple(tuple((rix[f[:k] + f[k + 1:]], -1 if k % 2 else 1) for k in range(len(f)))
                 for f in cols)


def rank_gf2(dense):
    m = [row[:] for row in dense]
    rank = 0
    cols = len(m[0]) if m else 0
    for j in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][j] % 2), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][j] % 2:
                m[i] = [(a + b) % 2 for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def rank_q(dense):
    m = [[Fraction(x) for x in row] for row in dense]
    rank = 0
    cols = len(m[0]) if m else 0
    for j in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][j]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][j]:
                c = m[i][j]
                m[i] = [a - c * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def det(square):
    """Leibniz expansion: a signed sum over all permutations."""
    n = len(square)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i, j in itertools.combinations(range(n), 2)
                         if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= square[i][perm[i]]
        total += term
    return total


def invariant_factors(dense):
    """Smith invariant factors from determinantal divisors; up to 5 x 5.

    d_k is the gcd of all k x k minors (d_0 = 1), and the k-th factor is
    d_k / d_(k-1) for every k up to the rank.
    """
    m = len(dense)
    n = len(dense[0]) if m else 0
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        d_k = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                d_k = math.gcd(d_k, det([[dense[i][j] for j in cols] for i in rows]))
        if d_k == 0:
            break
        factors.append(d_k // prev)
        prev = d_k
    return tuple(factors)


def brute_betti(G: Graph, field="gf2"):
    """Reduced Betti numbers of the independence complex, dim 0..top.

    field "gf2" gives mod-2 numbers, "q" rational ones (the free ranks of the
    integer groups).  Small graphs only.
    """
    by = faces_by_dimension(brute_independent_sets(G))
    top = max(by)
    rank = rank_gf2 if field == "gf2" else rank_q
    ranks = {d: rank(boundary_rows(by, d, signed=field == "q"))
             for d in range(0, top + 1)}
    out = {}
    for d in range(0, top + 1):
        f_d = len(by.get(d, []))
        out[d] = f_d - ranks[d] - ranks.get(d + 1, 0)
    return out


def column_cases(by_dim) -> dict:
    """The case of each face's boundary column, {face: 1, 2 or 3}, read off the
    sorted face lists of ``faces_by_dimension`` (every face of the complex).

    A face's first cofacet is the first face one dimension up that contains
    it; a face's highest-row facet is the face without its lowest vertex.
    Case 1 (apparent): f is the first cofacet of f's highest-row facet.
    Case 2 (reduces to zero): otherwise, f is the highest-row facet of its
    own first cofacet.  Case 3: neither.
    """
    first = {}
    for d in sorted(by_dim):
        for c in by_dim[d]:
            for k in range(len(c)):
                first.setdefault(c[:k] + c[k + 1:], c)
    cases = {}
    for d, faces in by_dim.items():
        for f in faces if d >= 0 else ():
            if first[f[1:]] == f:
                cases[f] = 1
            elif f in first and first[f][1:] == f:
                cases[f] = 2
            else:
                cases[f] = 3
    return cases


def matching_is_acyclic(pairs, faces) -> bool:
    """Whether a matching's modified Hasse diagram has no directed cycle.

    Every cover tau < sigma of the given faces is an edge sigma -> tau,
    turned upward when (tau, sigma) is a pair.  Faces with no outgoing edge
    are stripped until none is left; the matching is acyclic exactly when
    nothing survives.
    """
    faces = {frozenset(f) for f in faces}
    down_of = {frozenset(big): frozenset(small) for small, big in pairs}
    out = {f: set() for f in faces}
    for sigma in faces:
        for v in sigma:
            tau = sigma - {v}
            if down_of.get(sigma) == tau:
                out[tau].add(sigma)
            else:
                out[sigma].add(tau)
    alive = set(faces)
    while True:
        sinks = {f for f in alive if not out[f] & alive}
        if not sinks:
            return not alive
        alive -= sinks


def mask_indices(f: int) -> tuple:
    """The set bits of a face mask, lowest first, read bit by bit."""
    return tuple(i for i in range(f.bit_length()) if f >> i & 1)


def ordered_matching_sweep(K, order):
    """(pairs, critical) of the ordered sweep, scanning the whole pool per element.

    For each x in order, every pooled sigma without x whose sigma + {x} is
    pooled too is paired with it, and then all of that sweep's pairs leave
    the pool.  The pool holds index tuples decoded bit by bit from K's face
    masks.  Faces come out as label tuples in K's vertex order, sorted by
    size and then by index, like ``morse.element_matching`` renders them.
    """
    pool = set()
    for d in K.dims():
        pool.update(map(mask_indices, K.face_masks(d)))
    pairs = []
    for x in (K.index_of(v) for v in order):
        candidates = []
        for sigma in pool:
            if x in sigma:
                continue
            k = bisect.bisect_left(sigma, x)
            bigger = sigma[:k] + (x,) + sigma[k:]
            if bigger in pool:
                candidates.append((sigma, bigger))
        for sigma, bigger in candidates:
            pool.discard(sigma)
            pool.discard(bigger)
            pairs.append((sigma, bigger))

    def labels(f):
        return tuple(K.vertices[i] for i in f)

    by_size = lambda f: (len(f), f)
    return (tuple((labels(a), labels(b)) for a, b in sorted(pairs, key=lambda p: by_size(p[0]))),
            tuple(labels(f) for f in sorted(pool, key=by_size)))


def simplicial_vertex_pairwise(G: Graph, v) -> bool:
    """N(v) nonempty, no loop at v or in N(v), and every two neighbours adjacent."""
    nbrs = G.neighbors(v)
    return (bool(nbrs) and not G.has_edge(v, v)
            and not any(G.has_edge(w, w) for w in nbrs)
            and all(G.has_edge(a, b) for a, b in itertools.combinations(nbrs, 2)))


def is_cycle_graph(G: Graph, n: int) -> bool:
    """Connected, loop-free, 2-regular on n >= 3 vertices."""
    if G.vertex_count != n or G.edge_count != n or G.loop_count or n < 3:
        return False
    if any(len(G.neighbors(v)) != 2 for v in G.vertices):
        return False
    seen = {G.vertices[0]}
    frontier = [G.vertices[0]]
    while frontier:
        v = frontier.pop()
        for w in G.neighbors(v):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == n


def graphs_isomorphic(G: Graph, H: Graph) -> bool:
    """Permutation sweep; fine up to ~8 vertices."""
    if (G.vertex_count, G.edge_count, G.loop_count) != (H.vertex_count, H.edge_count, H.loop_count):
        return False
    gv, hv = list(G.vertices), list(H.vertices)
    if sorted(len(G.neighbors(v)) for v in gv) != sorted(len(H.neighbors(v)) for v in hv):
        return False
    for perm in itertools.permutations(hv):
        fmap = dict(zip(gv, perm))
        if any(G.is_looped(v) != H.is_looped(fmap[v]) for v in gv):
            continue
        if all(H.has_edge(fmap[u], fmap[v]) for u, v in G.edges):
            return True
    return False


# -- reduce()'s rule searches on masks, one candidate at a time ----------------------
#
# Vertex i is bit i; adj[i] is N(i), a looped vertex's holding its own bit, and
# alive is the mask of the subgraph searched.

def _live_neighbours(adj, alive, v) -> set:
    return {x for x in mask_indices(alive) if adj[v] >> x & 1}


def dominated_pair_scan(adj, alive):
    """First (u, u2) of distinct live vertices with N(u) <= N(u2) inside ``alive``,
    each u in vertex order tried against each u2 in vertex order."""
    live = mask_indices(alive)
    for u in live:
        for u2 in live:
            if u2 != u and _live_neighbours(adj, alive, u) <= _live_neighbours(adj, alive, u2):
                return u, u2
    return None


def cone_apex_scan(adj, alive, a, b):
    """First live w outside N[{a,b}] whose live neighbours all lie inside it."""
    hood = {a, b} | _live_neighbours(adj, alive, a) | _live_neighbours(adj, alive, b)
    return next((w for w in mask_indices(alive)
                 if w not in hood and _live_neighbours(adj, alive, w) <= hood), None)


def cone_edge_by_pairs(adj, alive):
    """First live non-adjacent pair (a, b), a < b, with a cone apex, trying
    every pair in ``combinations`` order."""
    for a, b in itertools.combinations(mask_indices(alive), 2):
        if not adj[a] >> b & 1 and cone_apex_scan(adj, alive, a, b) is not None:
            return a, b
    return None


def first_simplicial_scan(adj, alive, among):
    """Lowest v of ``among`` whose live neighbours are at least one, none of
    them looped, and pairwise adjacent (a looped live v is its own neighbour)."""
    for v in mask_indices(among):
        nbrs = sorted(_live_neighbours(adj, alive, v))
        if (nbrs and not any(adj[w] >> w & 1 for w in nbrs)
                and all(adj[x] >> y & 1 for x, y in itertools.combinations(nbrs, 2))):
            return v
    return None


# -- reduce() as Graph surgery -----------------------------------------------------

def _delete_vertices(G: Graph, labels) -> Graph:
    drop = set(labels)
    keep = [v for v in G.vertices if v not in drop]
    kept = set(keep)
    return Graph(keep, [e for e in G.edges if e[0] in kept and e[1] in kept],
                 [v for v in G.loops if v in kept])


def _add_edge(G: Graph, u, v) -> Graph:
    return Graph(G.vertices, list(G.edges) + [(u, v)], G.loops, name=G.name)


def _fold_step(g: Graph, nbrs):
    for u, nu in nbrs.items():
        for u2, nu2 in nbrs.items():
            if u2 != u and nu <= nu2:
                return (_delete_vertices(g, [u2]),
                        {"rule": "fold", "kept": render_label(u), "deleted": render_label(u2)})
    return None


def _drop_looped(g: Graph):
    steps = [{"rule": "drop-looped", "vertex": render_label(v)} for v in g.loops]
    return _delete_vertices(g, g.loops), steps


def _simplicial_split(G: Graph, v):
    nbrs = G.neighbors(v)
    return [_delete_vertices(G, G.closed_neighborhood(w))
            for w in G.vertices if w in nbrs]


def _cone_witness(nbrs, a, b):
    hood = nbrs[a] | nbrs[b] | {a, b}
    return next((w for w in nbrs if w not in hood and nbrs[w] <= hood), None)


def reduce_by_surgery(G: Graph, budget: int = 10_000):
    """The lemma driver on labels: each fold, split branch and cone edge is a new Graph.

    Same rules, scan order, budget accounting and trace as
    ``homotopy.reduce``: per pass, drop looped vertices (one budget unit
    each); empty graph => S^-1; isolated vertex => contractible; fold the
    first dominated vertex; split at the first simplicial vertex; add the
    first cone-certified edge; else Stuck.
    """
    counter = [budget]

    def go(g):
        trace = []
        while True:
            if counter[0] <= 0:
                return Stuck(g, "budget exhausted", budget_exhausted=True), trace
            if g.loops:
                g, steps = _drop_looped(g)
                counter[0] -= len(steps)
                trace.extend(steps)
                continue
            if not g.vertices:
                trace.append({"rule": "empty-graph"})
                return HomotopyType.empty_complex(), trace
            iso = g.isolated_vertices()
            if iso:
                trace.append({"rule": "cone-isolated", "vertex": render_label(iso[0])})
                return HomotopyType.contractible(), trace
            nbrs = {v: g.neighbors(v) for v in g.vertices}  # N(v) of each, in order
            step = _fold_step(g, nbrs)
            if step is not None:
                counter[0] -= 1
                g, done = step
                trace.append(done)
                continue
            split_v = None
            for v in g.vertices:
                if simplicial_vertex_pairwise(g, v):
                    split_v = v
                    break
            if split_v is not None:
                counter[0] -= 1
                subs = _simplicial_split(g, split_v)
                branches = []
                parts = []
                for sub in subs:
                    res, sub_trace = go(sub)
                    branches.append(sub_trace)
                    if isinstance(res, Stuck):
                        trace.append({"rule": "split",
                                      "vertex": render_label(split_v),
                                      "branches": branches})
                        return res, trace
                    parts.append(suspend(res))
                trace.append({"rule": "split", "vertex": render_label(split_v),
                              "branches": branches})
                return wedge_all(parts), trace
            for a, b in itertools.combinations(g.unlooped_vertices(), 2):
                witness = None if g.has_edge(a, b) else _cone_witness(nbrs, a, b)
                if witness is not None:
                    break
            else:
                return Stuck(g, "no rule fired"), trace
            counter[0] -= 1
            trace.append({"rule": "add-edge-cone",
                          "edge": [render_label(a), render_label(b)],
                          "isolated_witness": render_label(witness)})
            g = _add_edge(g, a, b)

    # go refers to itself through its closure cell; break that cycle
    try:
        return go(G)
    finally:
        del go


# -- graph builders on labels -----------------------------------------------------

def complete_by_labels(n: int) -> Graph:
    return Graph(range(1, n + 1), itertools.combinations(range(1, n + 1), 2), name=f"K{n}")


def path_by_labels(n: int) -> Graph:
    return Graph(range(1, n + 1), zip(range(1, n), range(2, n + 1)), name=f"P{n}")


def cycle_by_labels(n: int, name=None) -> Graph:
    return Graph(range(1, n + 1), [*zip(range(1, n), range(2, n + 1)), (n, 1)],
                 name=name or f"C{n}")


def looped_path_by_labels(r: int) -> Graph:
    return Graph(range(r + 1), zip(range(r), range(1, r + 1)), loops=[0], name=f"L{r}")


def cycle_ladder_by_labels(n: int, i: int) -> Graph:
    """C_n less the edges (1,2) and (1,n), with the rungs xk - yk, the rails
    x1 - ... - xi and y1 - ... - yi, and their ends tied to 2, n and 1."""
    if i == 0:
        return cycle_by_labels(n, f"C{n}^0")
    xs, ys = [f"x{k}" for k in range(1, i + 1)], [f"y{k}" for k in range(1, i + 1)]
    edges = [(a, a + 1) for a in range(2, n)] + [(xs[k], ys[k]) for k in range(i)]
    edges += [(xs[k], xs[k + 1]) for k in range(i - 1)]
    edges += [(ys[k], ys[k + 1]) for k in range(i - 1)]
    edges += [(2, xs[0]), (n, ys[0]), (xs[-1], 1), (ys[-1], 1)]
    return Graph([*range(1, n + 1), *xs, *ys], edges, name=f"C{n}^{i}")


def family_by_labels(family: str, params) -> Graph:
    """The named family instance, each factor and quotient built on labels."""
    def product(*factors):
        return functools.reduce(categorical_product_by_pairs, factors)

    K = complete_by_labels
    builders = {
        "product": lambda m, n: product(K(m), K(n)),
        "multi_k2_product": lambda r, n: product(*[K(2)] * (r - 1), K(n)),
        "kn_lr": lambda n, r: product(K(n), looped_path_by_labels(r)),
        "gadget": lambda n, t: tower_gadget_by_labels(n, 1, t),
        "mycielskian": lambda n, r: mycielskian_by_quotient(K(n), r),
        "path": path_by_labels,
        "cycle": cycle_by_labels,
        "cycle_ladder": cycle_ladder_by_labels,
        "conjecture_k2k3kn": lambda n: product(K(2), K(3), K(n)),
    }
    return builders[family](*params)


def random_graph_by_labels(n: int, rng, p: float = 0.5) -> Graph:
    """Vertices 1..n; the pairs (u, v), u < v, drawn in turn, each an edge with probability p."""
    verts = range(1, n + 1)
    return Graph(verts, [e for e in itertools.combinations(verts, 2) if rng.random() < p])


def categorical_product_by_pairs(G: Graph, H: Graph) -> Graph:
    """G x H from every pair of label pairs: (g,h) ~ (g',h') iff g ~ g' and h ~ h'."""
    verts = [(g, h) for g in G.vertices for h in H.vertices]
    edges = [((g, h), (g2, h2)) for i, (g, h) in enumerate(verts) for (g2, h2) in verts[i + 1:]
             if G.has_edge(g, g2) and H.has_edge(h, h2)]
    loops = [(g, h) for g, h in verts if G.is_looped(g) and H.is_looped(h)]
    name = f"{G.name}x{H.name}" if G.name and H.name else None
    return Graph(verts, edges, loops, name=name)


def mycielskian_by_quotient(G: Graph, r: int) -> Graph:
    """G x looped_path(r) on labels, with level r collapsed to the apex "w"."""
    path = Graph(range(r + 1), [(i, i + 1) for i in range(r)], loops=[0])
    prod = categorical_product_by_pairs(G, path)

    def collapse(v):
        return "w" if v[1] == r else v

    edges = {(collapse(u), collapse(v)) for u, v in prod.edges if collapse(u) != collapse(v)}
    return Graph({collapse(v) for v in prod.vertices}, edges,
                 name=f"M{r}({G.name})" if G.name else None)


def tower_gadget_by_labels(n: int, i: int, j: int) -> Graph:
    """Levels below j of the level-(j+1) Mycielskian of K_n, plus (i, j), on labels."""
    tower = mycielskian_by_quotient(complete_by_labels(n), j + 1)
    keep = {v for v in tower.vertices if v != "w" and v[1] < j} | {(i, j)}
    return Graph(keep, [e for e in tower.edges if keep.issuperset(e)],
                 name=f"gadget(n={n},i={i},t={j})")


def find_crossing_by_labels(G: Graph):
    """First (v1, v2, v4, v3) in vertex order with v2, v4 in N(v1) and v3 in N(v2),
    v4 outside {v1, v2} and v3 outside {v1, v2, v4}; returned as (v1, v2, v3, v4)."""
    def in_order(v):
        return [w for w in G.vertices if w in G.neighbors(v)]

    for v1 in G.vertices:
        for v2 in in_order(v1):
            for v4 in in_order(v1):
                if v4 not in (v1, v2):
                    for v3 in in_order(v2):
                        if v3 not in (v1, v2, v4):
                            return v1, v2, v3, v4
    return None


def find_triangle_by_labels(G: Graph):
    """First (v1, v2, v3) in vertex order with v2, v3 neighbours of v1 and of each other."""
    for v1 in G.vertices:
        nb = [w for w in G.vertices if w in G.neighbors(v1)]
        for k, v2 in enumerate(nb):
            for v3 in nb[k + 1:]:
                if G.has_edge(v2, v3):
                    return v1, v2, v3
    return None
