"""Simplicial complexes, chiefly independence complexes of graphs.

Faces are stored per dimension as sorted tuples of vertex indices (indices
into the canonical vertex order), with the empty face at dimension -1.
The empty face is always present, so the complex of a graph whose every
vertex is looped is {[]}, the empty complex.
"""

from itertools import combinations

from .graphs import Graph, render_label

DEFAULT_FACE_BUDGET = 50_000_000


class FaceBudgetError(RuntimeError):
    """Raised when an enumeration would exceed the face budget; never truncates."""


def _check_budget(count: int, budget: int) -> None:
    if count > budget:
        raise FaceBudgetError(f"face budget exceeded: {count} > {budget}")


class SimplicialComplex:
    """Immutable simplicial complex on an ordered vertex universe.

    The constructor trusts its input: vertices in canonical order and, per
    dimension, a sorted sequence of strictly increasing index tuples, which
    is what enumeration produces.  Faces from outside the program come in
    through ``from_facets``.
    """

    __slots__ = ("vertices", "_index", "_faces", "_face_sets", "source")

    def __init__(self, vertices, faces_by_dim, source=None):
        self.vertices = tuple(vertices)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        self._faces = {-1: ((),)}
        self._faces.update((d, tuple(fs)) for d, fs in faces_by_dim.items() if d >= 0 and fs)
        self._face_sets = {}
        self.source = source

    # -- structure ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return max(self._faces)

    def dims(self):
        return tuple(sorted(self._faces))

    def index_faces(self, d):
        """Faces of dimension d as sorted index tuples (canonical order)."""
        return self._faces.get(d, ())

    def faces(self, d):
        """Faces of dimension d as label tuples."""
        vs = self.vertices
        return tuple(tuple(vs[i] for i in f) for f in self.index_faces(d))

    def face_count(self, d) -> int:
        return len(self._faces.get(d, ()))

    def f_vector(self):
        """(f_-1, f_0, ..., f_dim); f_-1 = 1 for the empty face."""
        return tuple(self.face_count(d) for d in range(-1, self.dim + 1))

    @property
    def total_faces(self) -> int:
        return sum(len(v) for v in self._faces.values())

    def _face_set(self, d):
        if d not in self._face_sets:
            self._face_sets[d] = frozenset(self._faces.get(d, ()))
        return self._face_sets[d]

    def index_of(self, label) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise ValueError(f"not a vertex of the complex: {label!r}") from None

    def has_face(self, labels) -> bool:
        try:
            f = tuple(sorted(self.index_of(v) for v in labels))
        except ValueError:
            return False
        return f in self._face_set(len(f) - 1)

    # -- invariants ----------------------------------------------------------

    def euler_characteristic_reduced(self) -> int:
        """Sum of (-1)^dim over all faces, the empty face contributing -1."""
        # (-1) ** -1 is a float, so branch on parity instead
        return sum((-1 if d % 2 else 1) * self.face_count(d) for d in self.dims())

    def facets(self):
        """Maximal faces, as label tuples in canonical order."""
        vs = self.vertices
        out = []
        for d in self.dims():
            non_max = {f[:k] + f[k + 1:] for f in self.index_faces(d + 1) for k in range(len(f))}
            out.extend(tuple(vs[i] for i in f) for f in self.index_faces(d) if f not in non_max)
        return out

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.vertices == other.vertices and self._faces == other._faces

    def __hash__(self):
        return hash((self.vertices, tuple(sorted((d, fs) for d, fs in self._faces.items()))))

    def __repr__(self):
        tag = f" from {self.source}" if self.source else ""
        return f"<SimplicialComplex{tag}: dim {self.dim}, {self.total_faces} faces>"


# -- independence complexes -------------------------------------------------

def _independence_masks(G: Graph):
    """Non-looped vertices in canonical order, plus one adjacency bitmask each."""
    verts = [v for v in G.vertices if not G.is_looped(v)]
    index = {v: i for i, v in enumerate(verts)}
    nbr = [0] * len(verts)
    for u, v in G.edges:
        iu, iv = index.get(u), index.get(v)
        if iu is not None and iv is not None:
            nbr[iu] |= 1 << iv
            nbr[iv] |= 1 << iu
    return verts, nbr


def _enumerate_independent(nbr, max_size, budget):
    """All independent index sets of size <= max_size, as one list per size.

    A face's candidates are a bitmask of the vertices above its last one and
    adjacent to none of its own; the depth-first visit extends it by each,
    lowest bit first, so every list comes out in lexicographic order.  Each
    child face visited is charged against the budget.
    """
    full = (1 << len(nbr)) - 1
    keep = [full & ~m for m in nbr]
    out = [[] for _ in range(max_size + 1)]
    visited = 0

    def rec(face, cand):
        nonlocal visited
        k = len(face)
        out[k].append(face)
        if k == max_size:
            return
        while cand:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            visited += 1
            _check_budget(visited, budget)
            rec(face + (i,), cand & keep[i])

    rec((), full)
    return out


def _skeleton(G: Graph, max_dim: int | None, face_budget: int | None) -> SimplicialComplex:
    """The max_dim-skeleton of Ind(G) (all of it for None), by one enumeration."""
    budget = DEFAULT_FACE_BUDGET if face_budget is None else face_budget
    verts, nbr = _independence_masks(G)
    cap = len(verts) if max_dim is None else min(max_dim + 1, len(verts))
    by_size = _enumerate_independent(nbr, cap, budget)
    return SimplicialComplex(verts, {k - 1: fs for k, fs in enumerate(by_size)},
                             source=G.name or repr(G))


def independence_complex(G: Graph, max_dim: int | None = None,
                         face_budget: int | None = None) -> SimplicialComplex:
    """The complex of independent sets of G (faces avoid edges and looped vertices).

    With max_dim set, returns the dimension-<=max_dim skeleton.
    """
    return _skeleton(G, max_dim, face_budget)


def faces_in_window(G: Graph, d_lo: int, d_hi: int,
                    face_budget: int | None = None) -> SimplicialComplex:
    """The (d_hi+1)-skeleton of Ind(G): every face the Betti numbers in d_lo..d_hi need.

    Nothing above dimension d_hi+1 is enumerated.
    """
    if d_lo < 0 or d_hi < d_lo:
        raise ValueError(f"bad window ({d_lo}, {d_hi})")
    return _skeleton(G, d_hi + 1, face_budget)


def from_facets(vertices, facet_labels, face_budget: int | None = None,
                source=None) -> SimplicialComplex:
    """Downward closure of the given facets over the given vertex universe.

    The one way in for faces from outside the program: it puts the vertices
    in canonical order, sorts its own faces, and raises ValueError on a
    repeated or unhashable vertex, or a label outside the universe.
    """
    budget = DEFAULT_FACE_BUDGET if face_budget is None else face_budget
    vs = tuple(sorted(vertices, key=render_label))
    try:
        index = {v: i for i, v in enumerate(vs)}
    except TypeError:
        raise ValueError("unhashable vertex in the vertex universe") from None
    if len(index) != len(vs):
        raise ValueError("repeated vertex in the vertex universe")

    def position(v, facet):
        try:
            return index[v]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise ValueError(f"facet {facet!r} has a label outside the vertices: "
                             f"{v!r}") from None

    seen = set()
    count = 0
    for facet in facet_labels:
        f = tuple(sorted(position(v, facet) for v in facet))
        if len(set(f)) != len(f):
            raise ValueError(f"facet {facet!r} repeats a vertex")
        for k in range(len(f) + 1):
            for sub in combinations(f, k):
                if sub not in seen:
                    count += 1
                    _check_budget(count, budget)
                    seen.add(sub)
    faces = {}
    for f in sorted(seen):
        faces.setdefault(len(f) - 1, []).append(f)
    return SimplicialComplex(vs, faces, source=source)


# -- serialization ------------------------------------------------------------

def complex_to_json_dict(K: SimplicialComplex) -> dict:
    from .graphs import _encode_label
    return {
        "vertices": [_encode_label(v) for v in K.vertices],
        "facets": [[_encode_label(v) for v in f] for f in K.facets()],
    }


def complex_from_json_dict(d: dict) -> SimplicialComplex:
    from .graphs import _decode_label
    vertices = [_decode_label(v) for v in d["vertices"]]
    facets = [[_decode_label(v) for v in f] for f in d["facets"]]
    return from_facets(vertices, facets)


def f_vector_csv(K: SimplicialComplex) -> str:
    lines = ["dimension,faces"]
    for d in range(-1, K.dim + 1):
        lines.append(f"{d},{K.face_count(d)}")
    return "\n".join(lines) + "\n"
