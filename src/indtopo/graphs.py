"""Finite labeled graphs with optional self-loops.

Vertex labels are structured tokens: integers, short identifier strings,
or tuples of tokens (grid coordinates like ``(2, 1)``, tagged copies like
``("L", 3)``).  Every graph keeps its vertices in a canonical order, sorted
by the rendered token string, so iteration, serialization and everything
built on top of a graph is deterministic.  A graph holds one bitmask of
neighbours per vertex over that order; its edge and loop lists are derived.
Graphs are immutable: all surgery returns a new graph.
"""

import json
import re

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_TOKEN_RE = re.compile(r"-?\d+|[A-Za-z_][A-Za-z0-9_]*")


def validate_label(label):
    """Check that ``label`` is a legal vertex token and return it."""
    if isinstance(label, bool):
        raise ValueError(f"booleans are not vertex labels: {label!r}")
    if isinstance(label, int):
        return label
    if isinstance(label, str):
        if not _NAME_RE.match(label):
            raise ValueError(f"string labels must look like identifiers, got {label!r}")
        return label
    if isinstance(label, tuple):
        # 1-tuples would render ambiguously, so require arity >= 2
        if len(label) < 2:
            raise ValueError(f"tuple labels need at least two entries: {label!r}")
        for part in label:
            validate_label(part)
        return label
    raise ValueError(f"unsupported label type: {label!r}")


def render_label(label) -> str:
    """Canonical string form of a label; parse_label inverts this."""
    if isinstance(label, tuple):
        return "(" + ",".join(render_label(p) for p in label) + ")"
    return str(label)


def _parse_prefix(text):
    if text.startswith("("):
        rest = text[1:]
        parts = []
        while True:
            part, rest = _parse_prefix(rest)
            parts.append(part)
            if rest.startswith(","):
                rest = rest[1:]
                continue
            if rest.startswith(")"):
                return tuple(parts), rest[1:]
            raise ValueError(f"malformed tuple label near {text!r}")
    m = _TOKEN_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse label from {text!r}")
    token = m.group()
    rest = text[m.end():]
    if token[0] == "-" or token[0].isdigit():
        return int(token), rest
    return token, rest


def parse_label(text: str):
    """Inverse of render_label."""
    label, rest = _parse_prefix(text.strip())
    if rest:
        raise ValueError(f"trailing junk after label in {text!r}")
    return validate_label(label)


def parse_labels(text: str) -> list:
    """Labels from comma-separated rendered labels; empty entries are skipped."""
    labels, rest = [], text.strip()
    while rest:
        if rest.startswith(","):
            rest = rest[1:].lstrip()
            continue
        label, rest = _parse_prefix(rest)
        labels.append(validate_label(label))
        rest = rest.lstrip()
        if rest and not rest.startswith(","):
            raise ValueError(f"expected a comma after a label in {text!r}")
    return labels


def _masks(vs, edges, loops):
    """The masks of the labels ``vs`` (in canonical order) read off the listed
    edges and loops, with no checks: the work of every entry from labels."""
    bit = {v: 1 << i for i, v in enumerate(vs)}
    adj = dict.fromkeys(vs, 0)
    for u, v in edges:
        adj[u] |= bit[v]
        adj[v] |= bit[u]
    for v in loops:
        adj[v] |= bit[v]
    return adj.values()


class Graph:
    """Immutable labeled graph held as one adjacency bitmask per vertex.

    Bit i of a mask is ``vertices[i]``, and a looped vertex's mask holds its
    own bit.  ``edges`` (kept once read) and ``loops`` are read off the masks
    in canonical order, each edge (u, v) with u first.
    """

    __slots__ = ("vertices", "name", "_adj", "_looped", "_index", "_edges")

    def __init__(self, vertices, edges=(), loops=(), name=None):
        verts = [validate_label(v) for v in vertices]
        by_render = {render_label(v): v for v in verts}
        if len(by_render) != len(verts):
            raise ValueError("duplicate vertex labels (after rendering)")
        known = set(verts)
        edges, loops = list(edges), list(loops)
        for e in edges:
            u, v = e
            if u not in known or v not in known:
                raise ValueError(f"edge endpoint not a vertex: {e!r}")
            if u == v:
                raise ValueError(f"self-pair {e!r} in edge list; loops go in loops=")
        for v in loops:
            if v not in known:
                raise ValueError(f"loop at non-vertex: {v!r}")
        vs = [by_render[r] for r in sorted(by_render)]
        self._fill(vs, _masks(vs, edges, loops), name)

    @classmethod
    def _from_masks(cls, vertices, adj, name=None) -> "Graph":
        """Trusted entry: vertices in canonical order and their symmetric masks."""
        G = object.__new__(cls)
        G._fill(vertices, adj, name)
        return G

    @classmethod
    def _from_edges(cls, labels, edges, loops=(), name=None) -> "Graph":
        """Trusted entry: the package's own int and identifier labels (each renders
        as str() does), in any order, each edge listed once."""
        vs = sorted(labels, key=str)
        return cls._from_masks(vs, _masks(vs, edges, loops), name)

    def _fill(self, vertices, adj, name):
        self.vertices, self._adj, self.name = tuple(vertices), tuple(adj), name
        self._looped = sum(1 << i for i, a in enumerate(self._adj) if a >> i & 1)
        self._index = self._edges = None

    def _positions(self) -> dict:
        """Label -> position in the canonical order, built on the first lookup."""
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self.vertices)}
        return self._index

    def _at(self, v) -> int:
        """The position of vertex v in the canonical order."""
        try:
            return self._positions()[v]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise ValueError(f"not a vertex: {v!r}") from None

    # -- basic queries ----------------------------------------------------

    @property
    def edges(self) -> tuple:
        if self._edges is None:
            vs = self.vertices
            self._edges = tuple((vs[i], vs[j]) for i, a in enumerate(self._adj)
                                for j in bits(a & -(2 << i)))
        return self._edges

    @property
    def loops(self) -> tuple:
        return tuple(map(self.vertices.__getitem__, bits(self._looped)))

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return (sum(map(int.bit_count, self._adj)) - self._looped.bit_count()) // 2

    @property
    def loop_count(self) -> int:
        return self._looped.bit_count()

    def __contains__(self, label) -> bool:
        try:
            return label in self._positions()
        except TypeError:  # an unhashable label is no vertex
            return False

    def neighbors(self, v) -> frozenset:
        """Open neighborhood N(v); contains v itself exactly when v is looped."""
        return frozenset(map(self.vertices.__getitem__, bits(self._adj[self._at(v)])))

    def closed_neighborhood(self, v) -> frozenset:
        return self.neighbors(v) | {v}

    def closed_neighborhood_set(self, labels) -> frozenset:
        mask = 0
        for i in map(self._at, labels):
            mask |= self._adj[i] | 1 << i
        return frozenset(map(self.vertices.__getitem__, bits(mask)))

    def has_edge(self, u, v) -> bool:
        """Adjacency test; has_edge(v, v) is True exactly for looped v."""
        return bool(self._adj[self._at(u)] >> self._at(v) & 1)

    def is_looped(self, v) -> bool:
        return self.has_edge(v, v)

    def isolated_vertices(self):
        """Vertices with empty open neighborhood (a looped vertex is never isolated)."""
        return tuple(v for v, a in zip(self.vertices, self._adj) if not a)

    def unlooped_vertices(self):
        return tuple(v for i, v in enumerate(self.vertices) if not self._looped >> i & 1)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.vertices, self._adj) == (other.vertices, other._adj)

    def __hash__(self):
        return hash((self.vertices, self._adj))

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        loops = f", {self.loop_count} loops" if self._looped else ""
        return f"<Graph{tag}: {self.vertex_count} vertices, {self.edge_count} edges{loops}>"


def is_simplicial_vertex(G: Graph, v) -> bool:
    """True when N(v) is nonempty, loop-free, and induces a complete subgraph."""
    return first_simplicial(G._adj, (1 << len(G._adj)) - 1, 1 << G._at(v)) is not None


# -- adjacency bitmasks ------------------------------------------------------
#
# Bit i stands for G.vertices[i].  A set of vertices is an int, a subgraph is
# the mask of its vertices (``alive``), and N(v) inside it is adj[v] & alive.

def adjacency_masks(G: Graph) -> list:
    """A copy of G's masks: N(v) of each vertex, a looped vertex's holding its own bit."""
    return list(G._adj)


def bits(mask: int):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def select_bits(adj, alive: int):
    """The positions in ``alive``, and their masks cut to ``alive`` and re-indexed."""
    keep = list(bits(alive))
    if len(keep) == len(adj):
        return keep, list(adj)
    new = {i: k for k, i in enumerate(keep)}
    return keep, [sum(1 << new[j] for j in bits(adj[i] & alive)) for i in keep]


def masked_subgraph(vertices, adj, alive: int, name=None) -> Graph:
    """The graph on the vertices in ``alive`` with the edges of ``adj`` among them."""
    keep, masks = select_bits(adj, alive)
    return Graph._from_masks([vertices[i] for i in keep], masks, name)


def first_simplicial(adj: list, alive: int, among: int):
    """The lowest vertex of ``among`` simplicial in the subgraph ``alive``, or None.

    v is simplicial when its live neighbourhood is a nonempty clique with no
    loop: a looped neighbour is in no independent set, so the split over N(v)
    would miscount (a looped live v is its own neighbour).
    """
    while among:
        low = among & -among
        v = low.bit_length() - 1
        among ^= low
        nbrs = rest = adj[v] & alive
        while rest:
            wlow = rest & -rest
            w = wlow.bit_length() - 1
            aw = adj[w]
            if aw & wlow or nbrs & ~(aw | wlow):
                break
            rest ^= wlow
        else:
            if nbrs:
                return v
    return None


# -- family constructors ---------------------------------------------------

def complete(n: int) -> Graph:
    """Complete graph on vertices 1..n."""
    if n < 1:
        raise ValueError(f"complete(n) needs n >= 1, got {n}")
    full = (1 << n) - 1
    return Graph._from_masks(sorted(range(1, n + 1), key=str),
                             [full ^ 1 << i for i in range(n)], f"K{n}")


def path(n: int) -> Graph:
    """Path on vertices 1..n."""
    if n < 1:
        raise ValueError(f"path(n) needs n >= 1, got {n}")
    return Graph._from_edges(range(1, n + 1), [(i, i + 1) for i in range(1, n)], name=f"P{n}")


def cycle(n: int) -> Graph:
    """Cycle on vertices 1..n."""
    if n < 3:
        raise ValueError(f"cycle(n) needs n >= 3, got {n}")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph._from_edges(range(1, n + 1), edges, name=f"C{n}")


def looped_path(r: int) -> Graph:
    """Path on vertices 0..r with a loop at 0; looped_path(0) is one looped vertex."""
    if r < 0:
        raise ValueError(f"looped_path(r) needs r >= 0, got {r}")
    return Graph._from_edges(range(r + 1), [(i, i + 1) for i in range(r)], [0], f"L{r}")


def categorical_product(G: Graph, H: Graph) -> Graph:
    """Categorical (tensor) product: (g,h) ~ (g',h') iff g ~ g' and h ~ h'."""
    if not G.vertices or not H.vertices:
        raise ValueError("categorical_product needs nonempty factors")
    # The order is row-major, (g, h) at bit g*|H| + h: "(a,b)" strings sort as
    # the pairs (a, b) do, as a rendering is a proper prefix of another only
    # where a letter or digit follows, and those sort after "," and ")".
    # N((g, h)) is N(h) in the row of each g' in N(g): the mask of N(g) spread
    # to one bit per row (its binary digits |H| - 1 zeros apart), times N(h),
    # a product that never carries.
    gap = "0" * (len(H.vertices) - 1)
    rows = [int(gap.join(bin(a)[2:]), 2) for a in G._adj]
    name = f"{G.name}x{H.name}" if G.name and H.name else None
    return Graph._from_masks([(g, h) for g in G.vertices for h in H.vertices],
                             [row * b for row in rows for b in H._adj], name)


APEX = "w"


def generalized_mycielskian(G: Graph, r: int) -> Graph:
    """Level-r Mycielskian: quotient of G x looped_path(r) identifying level r to one apex.

    Vertices are (v, j) for 0 <= j < r plus the apex "w".  The apex is
    adjacent to (v, r-1) exactly when v is non-isolated in G.  Levels below r
    are G x looped_path(r-1); the apex, "w" after every "(", comes last.
    """
    if r < 1:
        raise ValueError(f"generalized_mycielskian needs r >= 1, got {r}")
    if G.loops:
        raise ValueError("generalized_mycielskian needs a simple (loop-free) graph")
    L = looped_path(r - 1)
    levels = categorical_product(G, L)
    adj, apex = list(levels._adj), 1 << len(levels._adj)
    top = [i * r + L._at(r - 1) for i, a in enumerate(G._adj) if a]
    for k in top:
        adj[k] |= apex
    adj.append(sum(1 << k for k in top))
    name = f"M{r}({G.name})" if G.name else None
    return Graph._from_masks(levels.vertices + (APEX,), adj, name)


def tower_gadget(n: int, i: int, j: int) -> Graph:
    """Levels 0..j-1 of the Mycielskian tower over K_n, plus the lone vertex (i, j).

    For j = 0 this is just the isolated vertex (i, 0).
    """
    if n < 3:
        raise ValueError(f"tower_gadget needs n >= 3, got {n}")
    if not 1 <= i <= n:
        raise ValueError(f"tower_gadget needs 1 <= i <= n, got i={i}")
    if j < 0:
        raise ValueError(f"tower_gadget needs j >= 0, got {j}")
    tower = generalized_mycielskian(complete(n), j + 1)
    keep = sum(1 << k for k, v in enumerate(tower.vertices)
               if v != APEX and v[1] < j or v == (i, j))
    return masked_subgraph(tower.vertices, tower._adj, keep, f"gadget(n={n},i={i},t={j})")


def cycle_ladder(n: int, i: int) -> Graph:
    """Cycle on 1..n with the two edges at vertex 1 replaced by an i-rung ladder.

    The rungs are x_1..x_i and y_1..y_i; for i = 0 this is just cycle(n).
    """
    if n < 3:
        raise ValueError(f"cycle_ladder needs n >= 3, got {n}")
    if i < 0:
        raise ValueError(f"cycle_ladder needs i >= 0, got {i}")
    # the rails 2, x_1, ..., x_i, 1 and n, y_1, ..., y_i, 1 stand in for the
    # edges (1,2) and (1,n) of the cycle, joined by the rungs (x_k, y_k)
    xs = [f"x{k}" for k in range(1, i + 1)]
    ys = [f"y{k}" for k in range(1, i + 1)]
    edges = [(a, a + 1) for a in range(2, n)] + list(zip(xs, ys))
    for rail in ([2, *xs, 1], [n, *ys, 1]):
        edges += zip(rail, rail[1:])
    verts = [*range(1, n + 1), *xs, *ys]
    return Graph._from_edges(verts, edges, name=f"C{n}^{i}")


def _fresh_labels(G: Graph, bases):
    taken = {render_label(v) for v in G.vertices}
    out = []
    for base in bases:
        cand = base
        k = 1
        while cand in taken:
            k += 1
            cand = f"{base}{k}"
        taken.add(cand)
        out.append(cand)
    return out


def ladder_replace_crossing(G: Graph, v1, v2, v3, v4) -> Graph:
    """Replace the crossing edges (v1,v4), (v2,v3) by a 2-rung ladder.

    Requires v1..v4 distinct and edges (v1,v4), (v2,v3), (v1,v2) present.
    Four fresh vertices a, b, c, d are added with edges
    (v1,a),(a,b),(b,v3),(v2,c),(c,d),(d,v4),(a,c),(b,d).
    """
    if len({v1, v2, v3, v4}) != 4:
        raise ValueError("crossing replacement needs four distinct vertices")
    return _ladder(G, v1, v2, v3, v4)


def ladder_replace_triangle(G: Graph, v1, v2, v3) -> Graph:
    """The crossing replacement with v4 = v3: detach v3 from the triangle v1,v2,v3.

    Requires the triangle edges present; removes (v1,v3) and (v2,v3) and
    adds the same 8-edge ladder with both ladder ends glued to v3.
    """
    if len({v1, v2, v3}) != 3:
        raise ValueError("triangle replacement needs three distinct vertices")
    return _ladder(G, v1, v2, v3, v3)


def _ladder(G: Graph, v1, v2, v3, v4) -> Graph:
    for u, v in [(v1, v4), (v2, v3), (v1, v2)]:
        if not G.has_edge(u, v):
            raise ValueError(f"required edge missing: ({u!r}, {v!r})")
    a, b, c, d = _fresh_labels(G, "abcd")
    drop = {frozenset((v1, v4)), frozenset((v2, v3))}
    edges = [e for e in G.edges if frozenset(e) not in drop]
    edges += [(v1, a), (a, b), (b, v3), (v2, c), (c, d), (d, v4), (a, c), (b, d)]
    return Graph(list(G.vertices) + [a, b, c, d], edges, G.loops)


# -- surgery ---------------------------------------------------------------

def induced_subgraph(G: Graph, labels) -> Graph:
    keep = 0
    for v in labels:
        keep |= 1 << G._at(v)
    return masked_subgraph(G.vertices, G._adj, keep)


def delete_vertices(G: Graph, labels) -> Graph:
    drop = 0
    for v in labels:
        drop |= 1 << G._at(v)
    return masked_subgraph(G.vertices, G._adj, (1 << len(G._adj)) - 1 & ~drop)


def add_edge(G: Graph, u, v) -> Graph:
    if u not in G or v not in G:
        raise ValueError(f"edge endpoints must be vertices: ({u!r}, {v!r})")
    if u == v:
        raise ValueError("add_edge rejects self-pairs; use add_loop")
    return Graph(G.vertices, list(G.edges) + [(u, v)], G.loops, name=G.name)


def add_loop(G: Graph, v) -> Graph:
    if v not in G:
        raise ValueError(f"not a vertex: {v!r}")
    return Graph(G.vertices, G.edges, list(G.loops) + [v], name=G.name)


# -- serialization ---------------------------------------------------------

def _encode_label(label):
    if isinstance(label, tuple):
        return [_encode_label(p) for p in label]
    return label


def _decode_label(obj):
    if isinstance(obj, list):
        return tuple(_decode_label(p) for p in obj)
    return validate_label(obj)


def graph_to_json_dict(G: Graph) -> dict:
    d = {
        "vertices": [_encode_label(v) for v in G.vertices],
        "edges": [[_encode_label(u), _encode_label(v)] for u, v in G.edges],
        "loops": [_encode_label(v) for v in G.loops],
    }
    if G.name:
        d["name"] = G.name
    return d


def graph_from_json_dict(d: dict) -> Graph:
    if not isinstance(d, dict) or "vertices" not in d:
        raise ValueError("a graph document is an object with a vertices list")
    for key in ("vertices", "edges", "loops"):
        if not isinstance(d.get(key, []), list):
            raise ValueError(f"graph field {key!r} is not a list")
    return Graph(
        [_decode_label(v) for v in d["vertices"]],
        [(_decode_label(u), _decode_label(v)) for u, v in d.get("edges", [])],
        [_decode_label(v) for v in d.get("loops", [])],
        name=d.get("name"),
    )


def write_edgelist(G: Graph, fh) -> None:
    """Text format: header "n m l", n vertex lines, m edge lines, l loop lines."""
    fh.write(f"{G.vertex_count} {G.edge_count} {G.loop_count}\n")
    for v in G.vertices:
        fh.write(render_label(v) + "\n")
    for u, v in G.edges:
        fh.write(f"{render_label(u)} {render_label(v)}\n")
    for v in G.loops:
        fh.write(render_label(v) + "\n")


def read_edgelist(fh) -> Graph:
    lines = [ln.strip() for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    try:
        n, m, l = (int(x) for x in lines[0].split())
    except Exception as exc:
        raise ValueError(f"bad edge-list header {lines[0]!r}") from exc
    if min(n, m, l) < 0:
        raise ValueError(f"negative count in edge-list header {lines[0]!r}")
    if len(lines) != 1 + n + m + l:
        raise ValueError(f"edge-list body has {len(lines) - 1} lines, expected {n + m + l}")
    verts = [parse_label(ln) for ln in lines[1:1 + n]]
    edges = []
    for ln in lines[1 + n:1 + n + m]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        edges.append((parse_label(parts[0]), parse_label(parts[1])))
    loops = [parse_label(ln) for ln in lines[1 + n + m:]]
    return Graph(verts, edges, loops)


def save_graph(G: Graph, path: str, fmt: str | None = None) -> None:
    fmt = fmt or ("json" if str(path).endswith(".json") else "edgelist")
    with open(path, "w") as fh:
        if fmt == "json":
            json.dump(graph_to_json_dict(G), fh, indent=2, sort_keys=True)
            fh.write("\n")
        elif fmt == "edgelist":
            write_edgelist(G, fh)
        else:
            raise ValueError(f"unknown graph format: {fmt!r}")


def load_graph(path: str, fmt: str | None = None) -> Graph:
    fmt = fmt or ("json" if str(path).endswith(".json") else "edgelist")
    with open(path) as fh:
        if fmt == "json":
            return graph_from_json_dict(json.load(fh))
        if fmt == "edgelist":
            return read_edgelist(fh)
        raise ValueError(f"unknown graph format: {fmt!r}")
