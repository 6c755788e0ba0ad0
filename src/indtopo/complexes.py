"""Simplicial complexes, chiefly independence complexes of graphs.

A face is one int mask over the canonical vertex order: bit i is vertex i,
and the empty face, at dimension -1, is 0.  Each dimension's masks are kept
in lexicographic order of their index tuples, which fixes every row index
and every rendered list.  The empty face is always present, so the complex
of a graph whose every vertex is looped is {[]}, the empty complex.
The Betti kernel's walk (``_classified_skeleton``) may take its own vertex
order instead, and returns the masks it walked with its faces.
"""

from itertools import combinations

from .graphs import Graph, bits, render_label, select_bits

DEFAULT_FACE_BUDGET = 50_000_000
_RELABEL_AT = 4    # the walk relabels from _RELABEL_AT * n^2 faces on n vertices


class FaceBudgetError(RuntimeError):
    """Raised when an enumeration would exceed the face budget; never truncates."""


def _check_budget(count: int, budget: int) -> None:
    if count > budget:
        raise FaceBudgetError(f"face budget exceeded: {count} > {budget}")


def facet_masks(f: int) -> list:
    """The facets of a face mask, dropping its lowest vertex first."""
    out, g = [], f
    while g:
        low = g & -g
        out.append(f ^ low)
        g ^= low
    return out


class SimplicialComplex:
    """Immutable simplicial complex on an ordered vertex universe.

    The constructor trusts its input: vertices in canonical order and, per
    dimension, face masks in lexicographic order of their index tuples,
    which is what enumeration produces.  Faces from outside the program come
    in through ``from_facets``.
    """

    __slots__ = ("vertices", "_index", "_faces", "_all_faces", "_source")

    def __init__(self, vertices, faces_by_dim, source=None):
        self.vertices = tuple(vertices)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        self._faces = faces = {-1: (0,)}
        for d, fs in faces_by_dim.items():
            if d >= 0 and fs:
                faces[d] = tuple(fs)
        self._all_faces = None
        self._source = source

    @property
    def source(self):
        """Where the complex came from; a graph reads as its repr, rendered here."""
        return repr(self._source) if isinstance(self._source, Graph) else self._source

    # -- structure ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return max(self._faces)

    def dims(self):
        return tuple(sorted(self._faces))

    def face_masks(self, d):
        """Faces of dimension d as masks, in canonical order."""
        return self._faces.get(d, ())

    def labels(self, f: int) -> tuple:
        """A face mask spelled as a label tuple in canonical order."""
        return tuple(map(self.vertices.__getitem__, bits(f)))

    def faces(self, d):
        """Faces of dimension d as label tuples."""
        return tuple(map(self.labels, self.face_masks(d)))

    def face_count(self, d) -> int:
        return len(self._faces.get(d, ()))

    def f_vector(self):
        """(f_-1, f_0, ..., f_dim); f_-1 = 1 for the empty face."""
        return tuple(self.face_count(d) for d in range(-1, self.dim + 1))

    @property
    def total_faces(self) -> int:
        return sum(len(v) for v in self._faces.values())

    def _face_set(self):
        """Every face mask of every dimension, for membership."""
        if self._all_faces is None:
            self._all_faces = frozenset().union(*self._faces.values())
        return self._all_faces

    def index_of(self, label) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise ValueError(f"not a vertex of the complex: {label!r}") from None

    def has_face(self, labels) -> bool:
        """True when the labels, each given once, span a face."""
        try:
            idx = [self.index_of(v) for v in labels]
        except ValueError:
            return False
        return len(set(idx)) == len(idx) and sum(1 << i for i in idx) in self._face_set()

    # -- invariants ----------------------------------------------------------

    def euler_characteristic_reduced(self) -> int:
        """Sum of (-1)^dim over all faces, the empty face contributing -1."""
        # (-1) ** -1 is a float, so branch on parity instead
        return sum(-len(fs) if d % 2 else len(fs) for d, fs in self._faces.items())

    def facets(self):
        """Maximal faces, as label tuples in canonical order."""
        out = []
        for d in self.dims():
            non_max = {g for f in self.face_masks(d + 1) for g in facet_masks(f)}
            out.extend(self.labels(f) for f in self.face_masks(d) if f not in non_max)
        return out

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.vertices == other.vertices and self._faces == other._faces

    def __hash__(self):
        return hash((self.vertices, tuple(sorted((d, fs) for d, fs in self._faces.items()))))

    def __repr__(self):
        tag = f" from {source}" if (source := self.source) else ""
        return f"<SimplicialComplex{tag}: dim {self.dim}, {self.total_faces} faces>"


# -- independence complexes -------------------------------------------------

def _independence_masks(G: Graph):
    """Non-looped vertices in canonical order, plus G's adjacency bitmask of each."""
    if not G._looped:
        return list(G.vertices), G._adj
    keep, nbr = select_bits(G._adj, ~G._looped & ((1 << len(G._adj)) - 1))
    return [G.vertices[i] for i in keep], nbr


def _enumerate_independent(keep, max_size):
    """All independent index sets of size <= max_size, as one list per size,
    keep[i] being the vertices not adjacent to vertex i (i included).

    A face's candidates are a bitmask of the vertices above its last one and
    adjacent to none of its own; the depth-first visit extends it by each,
    lowest bit first, so every list comes out in lexicographic order of
    index tuples.  Only a child with candidates below max_size is visited by
    a call of its own.  Nothing is charged against a budget: the caller has
    counted the faces first (``_skeleton``).
    """
    out = [[0]] + [[] for _ in range(max_size)]

    def rec(face, k, cand):     # list and visit face's children, of size k
        children = out[k]
        while cand:
            low = cand & -cand
            cand ^= low
            children.append(child := face | low)
            below = cand & keep[low.bit_length() - 1]
            if below and k < max_size:
                rec(child, k + 1, below)

    # rec refers to itself through its closure cell, a reference cycle that
    # would keep every face list alive until the cyclic collector runs
    try:
        if max_size:
            rec(0, 1, (1 << len(keep)) - 1)
    finally:
        del rec
    return out


def _skeleton(G: Graph, max_dim: int | None, face_budget: int | None) -> SimplicialComplex:
    """The max_dim-skeleton of Ind(G) (all of it for None), by one enumeration.

    The faces are counted first (``_face_polynomial``), so a budget trips
    before any face is built.  The count is skipped only where it cannot
    trip: n unlooped vertices span at most 2^n - 1 nonempty faces, and a
    nonempty face is its lowest vertex v and a set of S_v, the vertices
    above v not adjacent to it, so there are at most sum_v 2^|S_v|.
    """
    budget = DEFAULT_FACE_BUDGET if face_budget is None else face_budget
    verts, nbr = _independence_masks(G)
    cap = len(verts) if max_dim is None else min(max_dim + 1, len(verts))
    full = (1 << len(nbr)) - 1
    keep = [full & ~m for m in nbr]
    if full > budget and sum(1 << (m >> v + 1).bit_count() for v, m in enumerate(keep)) > budget:
        _face_polynomial(keep, cap, budget)
    by_size = _enumerate_independent(keep, cap)
    return SimplicialComplex(verts, {k - 1: fs for k, fs in enumerate(by_size)},
                             source=G.name or G)


def _face_polynomial(keep, last, budget):
    """How many independent sets there are of each size 0..last, keep[i]
    being the vertices not adjacent to vertex i (i included); raises
    FaceBudgetError, with the message of a face-by-face charge, exactly
    when the nonempty ones exceed the budget.

    The split I(S) = I(S - v) + x I(S - N[v]) on the lowest vertex v of S,
    unrolled along S - v: I(S) = 1 + x sum_v I(S_v), S_v the vertices of S
    above v not adjacent to it, memoised on (S, size cap <= |S|).  A
    polynomial is one int of (len(keep)+1)-bit fields, so x is a shift.
    The sum runs from the top vertex of S down: at vertex u it has done,
    the vertices of S above u, and acc, the sum of their terms, each cut at
    cap - 1.  S_v depends only on S above v, so those terms are I(done)'s
    own and 1 + x acc is I(done) cut at cap; where u has no neighbour in
    done, S_u = done and its term is that, cut at cap - 1, with no call and
    no memo entry.  An entry (S, cap) is fixed by the face T + min S, T the
    vertices taken on the way (S is every vertex above max T not adjacent
    to T), so the memo never holds more entries than there are faces: the
    budget trips once it does, or once the faces counted exceed it, at the
    root or at any entry below it (each set such an entry counts, joined
    with T, is a face), so a wide, shallow count stops early too.  A call
    that has taken d vertices proves 2^d - 1 faces, all below the size cap,
    so the budget also trips once 2^d - 1 exceeds it, which bounds the
    recursion depth by log2(budget + 1).
    """
    w = len(keep) + 1
    ones = (1 << w) - 1     # p % ones sums p's fields: they total < 2^n < ones
    deep = (budget + 1).bit_length()    # the least d with 2^d - 1 > budget
    memo = {}

    def poly(s, cap, d):        # 2 <= cap <= |s|, d vertices taken
        p = memo.get(key := s * w + cap)
        if p is None:
            if d >= deep:
                _check_budget(budget + 1, budget)
            acc, rest, trunc = 0, s, (1 << w * cap) - 1
            while rest:
                u = rest.bit_length() - 1
                done = s ^ rest     # the vertices of s above u
                rest ^= 1 << u
                t = done & keep[u]
                if t == done:       # I(done) cut at cap, masked to cap - 1
                    acc += (1 + (acc << w)) & trunc
                else:
                    n = t.bit_count()
                    c = cap - 1 if cap <= n else n
                    acc += poly(t, c, d + 1) if c > 1 else 1 + (n << w)
            memo[key] = p = 1 + (acc << w)
            if len(memo) > budget:
                _check_budget(len(memo), budget)
            if d and p % ones > budget:     # T + each set p counts is a face
                _check_budget(budget + 1, budget)
        return p

    cap = min(last, n := len(keep))
    try:
        p = poly((1 << n) - 1, cap, 0) if cap > 1 else 1 + (n << w) if cap else 1
    finally:
        del poly
    counts = [p >> w * k & (1 << w) - 1 for k in range(last + 1)]
    if sum(counts) > budget + 1:        # the empty face is free
        _check_budget(budget + 1, budget)
    return counts


def _walk_order(nbr):
    """The vertex order the walk of ``_classified_skeleton`` takes on large
    complexes, read off the adjacency masks alone: a permutation of the
    vertex indices, built one class at a time.

    A class starts at the lowest vertex not yet ordered, v, with the
    unordered non-neighbours of v as its candidates.  It then takes the
    candidate with the most neighbours among the candidates, on ties the
    one sharing the most neighbours with the vertex just taken (then the
    lowest), and drops that vertex's closed neighbourhood from them, until
    none is left; the next class starts after it.  Each class is a maximal
    independent set of the vertices left; on K_2 x K_3 x K_n the first is
    the six vertices sharing a K_n coordinate.  The second key takes the
    near-twins of the last vertex next: at n = 3, where the two K_3 factors
    tie most choices, lowest-index ties give an order no better than G's
    own.
    """
    order, rest, w = [], (1 << len(nbr)) - 1, len(nbr) + 1
    while rest:
        v = (rest & -rest).bit_length() - 1
        cand = rest
        while True:
            order.append(v)
            rest ^= 1 << v
            cand &= ~(nbr[v] | 1 << v)
            if not cand:
                break
            last, best, c = nbr[v], -1, cand
            while c:                # the best key, the lowest vertex on ties
                low = c & -c
                c ^= low
                m = nbr[low.bit_length() - 1]
                if (key := (m & cand).bit_count() * w + (m & last).bit_count()) > best:
                    best, v = key, low.bit_length() - 1
    return order


def _classified_skeleton(G: Graph, top: int | None, face_budget: int | None):
    """The case-3 faces of Ind(G) up to dimension top (all of it for None),
    the only columns the Betti kernel reads (``homology``): returns
    ({d: case-3 d-faces}, [face count of each size], the adjacency masks
    walked), faces and masks over the walk's vertex order.

    The counts come first (``_face_polynomial`` on G's own masks, so the
    counts and any budget error never depend on the order), then the walk
    of ``_enumerate_independent``, a face also carrying C and D, the
    vertices below its lowest vertex l free for it minus l, split by whether
    they are adjacent to l (D) or not (C): case 2 if C, else 3 if D, else 1.
    A child keeps l and ANDs C and D with the new vertex's non-neighbours,
    so below a face with D empty no face is case 3, and below one with a
    vertex of C adjacent to none of its candidates every face is case 2:
    the walk skips such a child.

    The cases depend on the vertex order, and on K_2 x K_3 x K_n far fewer
    faces are case 3 in ``_walk_order`` than in G's own (22 against 58 up
    to dimension 5 at n = 3, 68 against 604 at n = 5, 418 against 41,008
    at n = 12).  Relabelling costs O(n^2) bit operations on n vertices, a
    loss where the walk is cheap, so the walk takes that order only once
    the faces counted are at least _RELABEL_AT n^2 = 4 n^2, and G's own
    order otherwise.
    """
    budget = DEFAULT_FACE_BUDGET if face_budget is None else face_budget
    _, nbr = _independence_masks(G)
    full = (1 << len(nbr)) - 1
    keep = [full & ~m for m in nbr]
    last = len(nbr) if top is None else min(top + 1, len(nbr))  # the largest size walked
    counts = _face_polynomial(keep, last, budget)
    if sum(counts) >= _RELABEL_AT * len(nbr) ** 2:
        order, new = _walk_order(nbr), [0] * len(nbr)
        for i, v in enumerate(order):
            new[v] = 1 << i
        walked = []
        for v in order:
            m, r = nbr[v], 0
            while m:
                low = m & -m
                m ^= low
                r |= new[low.bit_length() - 1]
            walked.append(r)
        nbr = walked
        keep = [full & ~m for m in nbr]
    out = [[] if nbr else [0]] + [[] for _ in range(last)]   # the empty face: case 3 if no vertex

    def visit(face, k, cand, adj, clear):
        if not clear:
            out[k].append(face)
        k += 1
        while cand:
            low = cand & -cand
            cand ^= low
            m = keep[low.bit_length() - 1]
            if not adj & m:             # D empty: no case-3 face below
                continue
            c, s = clear & m, cand & m
            if k == last or not s:      # a leaf, kept if case 3
                if not c:
                    out[k].append(face | low)
                continue
            x = c
            while x and nbr[(x & -x).bit_length() - 1] & s:
                x &= x - 1
            if not x:
                visit(face | low, k, s, adj & m, c)

    try:
        # the root's children, f - l empty: B is every vertex below l, so D
        # is l's neighbours below it; with last 1 all are leaves
        for i, m in enumerate(keep):
            low = 1 << i
            if adj := (low - 1) & ~m:
                above = full & ~(2 * low - 1) & m if last > 1 else 0
                visit(low, 1, above, adj, (low - 1) & m)
    finally:
        del visit
    return {k - 1: fs for k, fs in enumerate(out) if fs}, counts, nbr


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

    seen = set()     # the nonempty faces, the ones a budget counts
    for facet in facet_labels:
        f = tuple(sorted(position(v, facet) for v in facet))
        if len(set(f)) != len(f):
            raise ValueError(f"facet {facet!r} repeats a vertex")
        for k in range(1, len(f) + 1):
            for sub in combinations(f, k):
                if sub not in seen:
                    seen.add(sub)
                    _check_budget(len(seen), budget)
    faces = {}
    for f in sorted(seen):
        faces.setdefault(len(f) - 1, []).append(sum(1 << i for i in f))
    return SimplicialComplex(vs, faces, source=source)
