"""Symbolic homotopy types (wedges of spheres) and homotopy-preserving reductions.

A HomotopyType is either contractible (the empty wedge) or a finite wedge
of spheres, stored as a dim -> multiplicity map.  Dimension -1 encodes the
empty complex {[]}, which is the join identity; it can only appear alone.
The join is bilinear (a p-sphere joined with a q-sphere is a (p+q+1)-sphere),
which makes "contractible absorbs joins" fall out of the empty product.
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
    if spec.family not in FAMILIES:
        raise ValueError(f"no predictor for family {spec.family!r}")
    fam = FAMILIES[spec.family]
    source = fam.source(*spec.params) if callable(fam.source) else fam.source
    return Prediction(HomotopyType(fam.spheres(*spec.params)),
                      conjectural=source == "conjecture", source=source)


# -- homotopy-preserving graph reductions ---------------------------------------

def _fold_step(g: Graph):
    """Fold the first dominated pair in canonical scan order, or return None.

    Deletes u2 for the first u, u2 with N(u) <= N(u2); returns the smaller
    graph and its trace step.
    """
    verts = g.vertices
    for u in verts:
        nu = g.neighbors(u)
        for u2 in verts:
            if u2 != u and nu <= g.neighbors(u2):
                return (gr.delete_vertices(g, [u2]),
                        {"rule": "fold", "kept": render_label(u), "deleted": render_label(u2)})
    return None


def _drop_looped(g: Graph):
    """Delete every looped vertex: (smaller graph, one trace step per vertex)."""
    steps = [{"rule": "drop-looped", "vertex": render_label(v)} for v in g.loops]
    return gr.delete_vertices(g, g.loops), steps


def fold_reduce(G: Graph):
    """Drop looped vertices, then repeatedly delete dominated vertices.

    A vertex v is deleted when some other u has N(u) <= N(v); looped
    vertices never appear in a face, so dropping them changes nothing.
    This is the link-cone deletion on graphs: lk(v) = Ind(G - N[v]) is a
    cone with apex w exactly when w is unlooped, w is not in N[v] and the
    unlooped neighbours of w lie in N(v), so Ind(G) = Ind(G - v) up to
    homotopy.  Returns (residual graph, trace).
    """
    g, trace = _drop_looped(G) if G.loops else (G, [])
    while (step := _fold_step(g)) is not None:
        g, done = step
        trace.append(done)
    return g, trace


def simplicial_split(G: Graph, v):
    """Subproblems G - N[w] for each neighbor w of a simplicial vertex v."""
    if v not in G:
        raise ValueError(f"not a vertex: {v!r}")
    if not gr.is_simplicial_vertex(G, v):
        raise ValueError(f"vertex {v!r} is not simplicial (or is isolated/looped)")
    nbrs = G.neighbors(v)
    return [gr.delete_vertices(G, G.closed_neighborhood(w))
            for w in G.vertices if w in nbrs]


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
    if _cone_witness(G, a, b) is None:
        return None
    return gr.add_edge(G, a, b)


def _cone_witness(G: Graph, a, b):
    """First isolated unlooped vertex of G - N[{a,b}], or None.

    That is a vertex w outside N[{a,b}] with N(w) inside it; a looped w fails
    the test since w is in N(w).  It is a cone apex, so edge (a, b) can be
    added to G without changing the homotopy type of Ind(G).
    """
    hood = G.closed_neighborhood_set([a, b])
    return next((w for w in G.vertices
                 if w not in hood and G.neighbors(w) <= hood), None)


@dataclass(frozen=True)
class Stuck:
    """Reduction gave up; carries the residual graph and why."""
    graph: Graph
    reason: str


def reduce(G: Graph, budget: int = 10_000):
    """Drive the reduction lemmas to a homotopy type, or report Stuck.

    Rules, in order per pass: drop looped vertices; empty graph => S^-1;
    isolated vertex => contractible cone; fold a dominated vertex; split at
    the first simplicial vertex (recursing on each piece and wedging the
    suspensions); as a last resort, add a cone-certified edge.  The budget
    caps total lemma applications; every step lands in the trace.
    """
    counter = [budget]

    def go(g):
        trace = []
        while True:
            if counter[0] <= 0:
                return Stuck(g, "budget exhausted"), trace
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
            step = _fold_step(g)
            if step is not None:
                counter[0] -= 1
                g, done = step
                trace.append(done)
                continue
            split_v = None
            for v in g.vertices:
                if gr.is_simplicial_vertex(g, v):
                    split_v = v
                    break
            if split_v is not None:
                counter[0] -= 1
                subs = simplicial_split(g, split_v)
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
                witness = None if g.has_edge(a, b) else _cone_witness(g, a, b)
                if witness is not None:
                    break
            else:
                return Stuck(g, "no rule fired"), trace
            counter[0] -= 1
            trace.append({"rule": "add-edge-cone",
                          "edge": [render_label(a), render_label(b)],
                          "isolated_witness": render_label(witness)})
            g = gr.add_edge(g, a, b)

    return go(G)
