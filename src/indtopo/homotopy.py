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

import itertools
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
    out = dict(a.spheres)
    for d, c in b.spheres:
        out[d] = out.get(d, 0) + c
    return HomotopyType(out)


def wedge_all(types) -> HomotopyType:
    out = HomotopyType.contractible()
    for t in types:
        out = wedge(out, t)
    return out


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

def _dominated_pair(adj: list, alive: int):
    """First (u, u2) in scan order of distinct live vertices with N(u) <= N(u2), or None."""
    for u in gr.bits(alive):
        nu = adj[u] & alive
        # every such u2 is a neighbour of N(u)'s lowest vertex, so scan only those
        rest = (adj[(nu & -nu).bit_length() - 1] if nu else alive) & alive & ~(1 << u)
        while rest:
            low = rest & -rest
            u2 = low.bit_length() - 1
            if not nu & ~adj[u2]:
                return u, u2
            rest ^= low
    return None


def _cone_apex(adj: list, alive: int, a: int, b: int):
    """First live w outside N[{a,b}] with N(w) inside it, or None.

    Such a w is an isolated unlooped vertex of the live subgraph minus
    N[{a,b}] (a looped w fails, since w is in N(w)).  It is a cone apex, so
    edge (a, b) can be added without changing the homotopy type of Ind.
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


def _subgraph(G: Graph, adj: list, alive: int) -> Graph:
    """The graph on G's live vertices with the edges in ``adj``.

    It keeps G's name while no vertex is gone, as ``graphs.add_edge`` does,
    and has none otherwise, as ``graphs.delete_vertices`` does.
    """
    name = G.name if alive == (1 << len(adj)) - 1 else None
    return gr.masked_subgraph(G.vertices, adj, alive, name)


def _looped_mask(adj: list) -> int:
    return sum(1 << i for i, a in enumerate(adj) if a >> i & 1)


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
    looped = _looped_mask(adj)
    alive = (1 << len(adj)) - 1 & ~looped
    trace = _drop_steps(names, looped)
    while (pair := _dominated_pair(adj, alive)) is not None:
        trace.append(_fold_record(names, *pair))
        alive &= ~(1 << pair[1])
    return _subgraph(G, adj, alive), trace


def simplicial_split(G: Graph, v):
    """Subproblems G - N[w] for each neighbor w of a simplicial vertex v."""
    if v not in G:
        raise ValueError(f"not a vertex: {v!r}")
    adj = gr.adjacency_masks(G)
    full = (1 << len(adj)) - 1
    i = G.vertices.index(v)
    if not gr.simplicial_in(adj, full, i):
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
    the first simplicial vertex (recursing on each piece and wedging the
    suspensions); as a last resort, add a cone-certified edge.  The budget
    caps total lemma applications; every step lands in the trace.
    """
    names = [render_label(v) for v in G.vertices]
    adj0 = gr.adjacency_masks(G)
    loops = _looped_mask(adj0)
    counter = [budget]

    def go(adj, alive):
        trace = []
        while True:
            if counter[0] <= 0:
                return Stuck(_subgraph(G, adj, alive), "budget exhausted",
                             budget_exhausted=True), trace
            if alive & loops:
                steps = _drop_steps(names, alive & loops)
                counter[0] -= len(steps)
                trace.extend(steps)
                alive &= ~loops
                continue
            if not alive:
                trace.append({"rule": "empty-graph"})
                return HomotopyType.empty_complex(), trace
            iso = next((v for v in gr.bits(alive) if not adj[v] & alive), None)
            if iso is not None:
                trace.append({"rule": "cone-isolated", "vertex": names[iso]})
                return HomotopyType.contractible(), trace
            pair = _dominated_pair(adj, alive)
            if pair is not None:
                counter[0] -= 1
                trace.append(_fold_record(names, *pair))
                alive &= ~(1 << pair[1])
                continue
            split_v = next((v for v in gr.bits(alive) if gr.simplicial_in(adj, alive, v)),
                           None)
            if split_v is not None:
                counter[0] -= 1
                branches = []
                parts = []
                step = {"rule": "split", "vertex": names[split_v], "branches": branches}
                for w in gr.bits(adj[split_v] & alive):
                    res, sub_trace = go(adj, alive & ~(adj[w] | 1 << w))
                    branches.append(sub_trace)
                    if isinstance(res, Stuck):
                        trace.append(step)
                        return res, trace
                    parts.append(suspend(res))
                trace.append(step)
                return wedge_all(parts), trace
            # looped vertices are gone by now, so every live pair is a candidate
            for a, b in itertools.combinations(list(gr.bits(alive)), 2):
                witness = None if adj[a] >> b & 1 else _cone_apex(adj, alive, a, b)
                if witness is not None:
                    break
            else:
                return Stuck(_subgraph(G, adj, alive), "no rule fired"), trace
            counter[0] -= 1
            trace.append({"rule": "add-edge-cone", "edge": [names[a], names[b]],
                          "isolated_witness": names[witness]})
            adj = adj.copy()
            adj[a] |= 1 << b
            adj[b] |= 1 << a

    # go refers to itself through its closure cell; break that cycle
    try:
        return go(adj0, (1 << len(adj0)) - 1)
    finally:
        del go
