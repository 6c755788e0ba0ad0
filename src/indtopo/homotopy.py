"""Symbolic homotopy types (wedges of spheres) and homotopy-preserving reductions.

A HomotopyType is either contractible (the empty wedge) or a finite wedge
of spheres, stored as a dim -> multiplicity map.  Dimension -1 encodes the
empty complex {[]}, which is the join identity; it can only appear alone.
The join is bilinear (a p-sphere joined with a q-sphere is a (p+q+1)-sphere),
which makes "contractible absorbs joins" fall out of the empty product.

The reduction lemmas (fold, simplicial split, cone-certified edge) and the
``reduce()`` driver run on adjacency bitmasks over the graph's canonical
vertex order; labels are rendered only for traces and residual graphs.
"""

from dataclasses import dataclass

from . import graphs as gr
from .families import FAMILIES, FamilySpec
from .graphs import Graph, render_label


class HomotopyType:
    """A finite wedge of spheres; the empty wedge means contractible."""

    __slots__ = ("spheres",)

    def __init__(self, spheres=()):
        items = dict(spheres)
        clean = {}
        for d, c in items.items():
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in (d, c)):
                raise ValueError(f"bad sphere entry {d!r}: {c!r}")
            if c < 0:
                raise ValueError(f"negative multiplicity for S^{d}")
            if d < -1:
                raise ValueError(f"sphere dimension below -1: {d}")
            if c:
                clean[d] = c
        if -1 in clean and clean != {-1: 1}:
            raise ValueError("the empty complex S^-1 cannot appear in a bigger wedge")
        self.spheres = tuple(sorted(clean.items()))

    @classmethod
    def contractible(cls) -> "HomotopyType":
        return cls()

    @classmethod
    def sphere(cls, dim: int, mult: int = 1) -> "HomotopyType":
        return cls({dim: mult})

    @classmethod
    def empty_complex(cls) -> "HomotopyType":
        return cls({-1: 1})

    @property
    def is_contractible(self) -> bool:
        return not self.spheres

    def betti(self) -> dict:
        """Implied reduced Betti numbers (dimension -> multiplicity)."""
        return dict(self.spheres)

    def render(self) -> str:
        if not self.spheres:
            return "point"
        parts = []
        for d, c in self.spheres:
            parts.append(f"S^{d}" if c == 1 else f"wedge({c}, S^{d})")
        return " v ".join(parts)

    def __eq__(self, other):
        if not isinstance(other, HomotopyType):
            return NotImplemented
        return self.spheres == other.spheres

    def __hash__(self):
        return hash(self.spheres)

    def __repr__(self):
        return f"<HomotopyType {self.render()}>"


def suspend(t: HomotopyType) -> HomotopyType:
    """Suspension shifts every sphere up one dimension; same as join with S^0."""
    return HomotopyType({d + 1: c for d, c in t.spheres})


def join(a: HomotopyType, b: HomotopyType) -> HomotopyType:
    """Bilinear join; S^-1 is the identity and contractible absorbs everything."""
    out = {}
    for p, cp in a.spheres:
        for q, cq in b.spheres:
            d = p + q + 1
            out[d] = out.get(d, 0) + cp * cq
    return HomotopyType(out)


def wedge(a: HomotopyType, b: HomotopyType) -> HomotopyType:
    """Wedge sum; contractible is the identity."""
    return wedge_all((a, b))


def wedge_all(types) -> HomotopyType:
    """Wedge sum of any number of types, validated once; contractible if none."""
    out = {}
    for t in types:
        for d, c in t.spheres:
            out[d] = out.get(d, 0) + c
    return HomotopyType(out)


# -- closed-form predictions ---------------------------------------------------

@dataclass(frozen=True)
class Prediction:
    homotopy: HomotopyType
    conjectural: bool = False
    source: str = "closed-form"


def predict(spec: FamilySpec) -> Prediction:
    """The family table's closed form for an instance, with its provenance."""
    fam = FAMILIES[spec.family]
    source = fam.source(*spec.params) if callable(fam.source) else fam.source
    return Prediction(HomotopyType(fam.spheres(*spec.params)),
                      conjectural=source == "conjecture", source=source)


# -- homotopy-preserving graph reductions ---------------------------------------
#
# The lemmas run on G's adjacency bitmasks (graphs.adjacency_masks): a
# subproblem is the mask of its live vertices, a fold clears one bit, a split
# branch is alive & ~N[w], and a cone edge sets two bits in a copied mask list.
# Labels are rendered only for the trace, and a Graph is built only for a
# residual handed back to the caller.
#
# Each rule's search is a mask loop that takes the first vertex or pair in
# vertex order, so the trace does not depend on how it is found: folds and
# cone edges intersect neighbourhoods (_dominated_pair, _cone_edge), a split
# takes graphs.first_simplicial, and _cone_apex names one witness per edge.
# After a fold the next scan starts where a new pair can first be
# (_fold_resume), and from vertex 0 after an added edge or in a new branch.

def _dominated_pair(adj: list, alive: int, start: int = 0):
    """First (u, u2) of distinct live vertices with N(u) <= N(u2) and
    u >= start, or None.

    u2 must be adjacent to every x in N(u), so per u in vertex order the
    other live vertices are ANDed with adj[x] for each such x, stopping at
    0; u2 is the lowest that survives.
    """
    rest = alive & -(1 << start)
    while rest:
        low = rest & -rest
        rest ^= low
        c = alive & ~low
        nu = adj[low.bit_length() - 1] & alive
        while nu and c:
            x = nu & -nu
            c &= adj[x.bit_length() - 1]
            nu ^= x
        if c:
            return low.bit_length() - 1, (c & -c).bit_length() - 1
    return None


def _fold_resume(adj: list, alive: int, u: int, u2: int) -> int:
    """Where the next ``_dominated_pair`` scan may start once u2 is folded
    away for u (``alive`` without u2): no vertex below u had a dominator,
    and only a live neighbour of u2 loses a neighbour, so only one of those
    can gain a dominator."""
    nb = adj[u2] & alive
    return min(u, (nb & -nb).bit_length() - 1) if nb else u


def _cone_apex(adj: list, alive: int, a: int, b: int):
    """First live w outside N[{a,b}] with N(w) inside it, or None.

    Such a w is an isolated unlooped vertex of the live subgraph minus
    N[{a,b}] (a looped w fails, since w is in N(w)).  It is a cone apex, so
    edge (a, b) can be added without changing the homotopy type of Ind.
    ``edge_add_if_cone`` and ``reduce`` (once per added edge) both name
    their witness with it.
    """
    hood = (adj[a] | adj[b] | 1 << a | 1 << b) & alive
    rest = alive & ~hood
    while rest:
        low = rest & -rest
        w = low.bit_length() - 1
        if not adj[w] & alive & ~hood:
            return w
        rest ^= low
    return None


def _cone_edge(adj: list, alive: int):
    """First live non-adjacent pair (a, b), a < b, in ``combinations`` order
    with a cone apex, or None; loops must be out of ``alive``.

    Per a, an apex w outside na = N[a] certifies the b above a, outside na
    and N[w], and adjacent to all of R = N(w) - na: the candidates that
    survive one AND with adj[x] per x in R.  The lowest b any w admits wins.
    """
    rest = alive
    while rest:
        low = rest & -rest
        rest ^= low
        a = low.bit_length() - 1
        na = (adj[a] | low) & alive
        above = alive & ~na & -(low << 1)
        if not above:
            continue
        found = 0
        ws = alive & ~na
        while ws:
            wlow = ws & -ws
            ws ^= wlow
            aw = adj[wlow.bit_length() - 1]
            c = above & ~(aw | wlow)
            r = aw & alive & ~na
            while r and c:
                x = r & -r
                c &= adj[x.bit_length() - 1]
                r ^= x
            found |= c
        if found:
            return a, (found & -found).bit_length() - 1
    return None


def _subgraph(G: Graph, adj: list, alive: int) -> Graph:
    """The graph on G's live vertices with the edges in ``adj``.

    It keeps G's name while no vertex is gone, as ``graphs.add_edge`` does,
    and has none otherwise, as ``graphs.delete_vertices`` does.
    """
    name = G.name if alive == (1 << len(adj)) - 1 else None
    return gr.masked_subgraph(G.vertices, adj, alive, name)


def _drop_steps(names: list, looped: int) -> list:
    return [{"rule": "drop-looped", "vertex": names[v]} for v in gr.bits(looped)]


def _fold_record(names: list, kept: int, deleted: int) -> dict:
    return {"rule": "fold", "kept": names[kept], "deleted": names[deleted]}


def fold_reduce(G: Graph):
    """Drop looped vertices, then repeatedly delete dominated vertices.

    A vertex v is deleted when some other u has N(u) <= N(v); looped
    vertices never appear in a face, so dropping them changes nothing.
    This is the link-cone deletion on graphs: lk(v) = Ind(G - N[v]) is a
    cone with apex w exactly when w is unlooped, w is not in N[v] and the
    unlooped neighbours of w lie in N(v), so Ind(G) = Ind(G - v) up to
    homotopy.  Returns (residual graph, trace).
    """
    adj = gr.adjacency_masks(G)
    names = [render_label(v) for v in G.vertices]
    looped = G._looped
    alive = (1 << len(adj)) - 1 & ~looped
    trace = _drop_steps(names, looped)
    start = 0
    while (pair := _dominated_pair(adj, alive, start)) is not None:
        trace.append(_fold_record(names, *pair))
        alive &= ~(1 << pair[1])
        start = _fold_resume(adj, alive, *pair)
    return _subgraph(G, adj, alive), trace


def simplicial_split(G: Graph, v):
    """Subproblems G - N[w] for each neighbor w of a simplicial vertex v."""
    if v not in G:
        raise ValueError(f"not a vertex: {v!r}")
    adj = gr.adjacency_masks(G)
    full = (1 << len(adj)) - 1
    i = G.vertices.index(v)
    if gr.first_simplicial(adj, full, 1 << i) is None:
        raise ValueError(f"vertex {v!r} is not simplicial (or is isolated/looped)")
    return [_subgraph(G, adj, full & ~(adj[w] | 1 << w)) for w in gr.bits(adj[i])]


def edge_add_if_cone(G: Graph, a, b):
    """Add edge (a, b) when G - N[{a,b}] visibly cones (has an isolated unlooped vertex).

    {a, b} must be independent: non-adjacent with neither endpoint looped.
    Returns the bigger graph, or None when the certificate fails.  An empty
    residual does NOT certify: the empty complex is not collapsible.
    """
    if a not in G or b not in G:
        raise ValueError(f"not vertices: {a!r}, {b!r}")
    if a == b or G.has_edge(a, b) or G.is_looped(a) or G.is_looped(b):
        raise ValueError(f"{{{a!r}, {b!r}}} is not independent in the graph")
    adj = gr.adjacency_masks(G)
    if _cone_apex(adj, (1 << len(adj)) - 1, G.vertices.index(a), G.vertices.index(b)) is None:
        return None
    return gr.add_edge(G, a, b)


@dataclass(frozen=True)
class Stuck:
    """Reduction gave up; carries the residual graph, why, and whether the
    step budget ran out (the one kind of give-up a caller acts on)."""
    graph: Graph
    reason: str
    budget_exhausted: bool = False


def reduce(G: Graph, budget: int = 10_000):
    """Drive the reduction lemmas to a homotopy type, or report Stuck.

    Rules, in order per pass: drop looped vertices; empty graph => S^-1;
    isolated vertex => contractible cone; fold a dominated vertex; split at
    the first simplicial vertex into the pieces G - N[w], w in N(v); as a
    last resort, add a cone-certified edge.  The budget caps total lemma
    applications; every step lands in the trace.

    Pieces are taken depth first from an explicit stack, each with its
    split depth k and the list its trace goes in; a split's step holds one
    trace per branch, appended when that branch is taken, so a Stuck in
    branch i leaves branches 0..i.  A split is a wedge of suspensions, a
    cone is a point, and S^-1 suspended k times is S^(k-1), so the result
    is S^(k-1) once per empty graph reached under k splits.
    """
    names = [render_label(v) for v in G.vertices]
    adj = gr.adjacency_masks(G)
    loops = G._looped
    top = []
    stack = [(adj, (1 << len(adj)) - 1, 0, top)]
    spheres = {}
    while stack:
        adj, alive, depth, parent = stack.pop()
        parent.append(trace := [])
        start = 0       # no live vertex below it has a dominator
        while True:
            if budget <= 0:
                return Stuck(_subgraph(G, adj, alive), "budget exhausted",
                             budget_exhausted=True), top[0]
            if alive & loops:
                steps = _drop_steps(names, alive & loops)
                budget -= len(steps)
                trace.extend(steps)
                alive &= ~loops
                continue
            if not alive:
                trace.append({"rule": "empty-graph"})
                spheres[depth - 1] = spheres.get(depth - 1, 0) + 1
                break
            rest = alive
            while rest and adj[(rest & -rest).bit_length() - 1] & alive:
                rest &= rest - 1
            if rest:
                iso = (rest & -rest).bit_length() - 1
                trace.append({"rule": "cone-isolated", "vertex": names[iso]})
                break
            pair = _dominated_pair(adj, alive, start)
            if pair is not None:
                budget -= 1
                trace.append(_fold_record(names, *pair))
                alive &= ~(1 << pair[1])
                start = _fold_resume(adj, alive, *pair)
                continue
            split_v = gr.first_simplicial(adj, alive, alive)
            if split_v is not None:
                budget -= 1
                branches = []
                trace.append({"rule": "split", "vertex": names[split_v], "branches": branches})
                for w in reversed([*gr.bits(adj[split_v] & alive)]):
                    stack.append((adj, alive & ~(adj[w] | 1 << w), depth + 1, branches))
                break
            pair = _cone_edge(adj, alive)
            if pair is None:
                return Stuck(_subgraph(G, adj, alive), "no rule fired"), top[0]
            a, b = pair
            witness = _cone_apex(adj, alive, a, b)
            budget -= 1
            trace.append({"rule": "add-edge-cone", "edge": [names[a], names[b]],
                          "isolated_witness": names[witness]})
            adj = adj.copy()
            adj[a] |= 1 << b
            adj[b] |= 1 << a
            start = 0
    return HomotopyType(spheres), top[0]
