"""Discrete Morse matchings built by processing elements in a fixed order.

The matching pairs each face sigma in the current pool with sigma + {x}
whenever both are still unpaired, sweeping x through the given order.
Within one sweep the pairing is an involution on the pool, so the result
does not depend on the iteration order inside a step.  The empty face
participates like any other face.
"""

from collections import Counter

from .complexes import SimplicialComplex
from .families import FAMILIES
from .graphs import render_label
from .homotopy import HomotopyType


class MatchingError(ValueError):
    """A matching failed validation or an acyclicity precondition."""


class Matching:
    """Pairs (sigma, sigma + {x}) of faces, plus the unpaired critical cells.

    ``Matching(order, pairs, critical)`` holds label tuples as given.  A
    matching built by ``element_matching`` holds K's vertex tuple
    (``vertices``) and K's index faces instead: ``pairs`` and ``critical``
    render them in labels the first time they are read, while the counts
    (``pair_count``, ``critical_counts``) and the checker read the index
    faces.  Equality and hashing go by (order, pairs, critical) either way.
    """

    __slots__ = ("_order", "_vertices", "_pairs", "_critical", "_label_pairs", "_label_critical")

    def __init__(self, order, pairs, critical):
        self._order, self._vertices = order, None
        self._pairs = self._label_pairs = pairs
        self._critical = self._label_critical = critical

    @classmethod
    def _on_index_faces(cls, order, vertices, pairs, critical):
        """A matching held as index faces into ``vertices``."""
        m = cls.__new__(cls)
        m._order, m._vertices = order, vertices
        m._pairs, m._critical = pairs, critical
        m._label_pairs = m._label_critical = None
        return m

    @property
    def order(self) -> tuple:
        return self._order

    @property
    def vertices(self):
        """The vertex tuple the index faces point into; None for a label matching."""
        return self._vertices

    @property
    def pairs(self) -> tuple:
        if self._label_pairs is None:
            vs = self._vertices.__getitem__
            self._label_pairs = tuple((tuple(map(vs, a)), tuple(map(vs, b)))
                                      for a, b in self._pairs)
        return self._label_pairs

    @property
    def critical(self) -> tuple:
        if self._label_critical is None:
            vs = self._vertices.__getitem__
            self._label_critical = tuple(tuple(map(vs, f)) for f in self._critical)
        return self._label_critical

    @property
    def pair_count(self) -> int:
        """Number of pairs, counted on the held faces without rendering labels."""
        return len(self._pairs)

    @property
    def empty_face_matched(self) -> bool:
        return any(small == () for small, _ in self._pairs)

    def critical_by_dimension(self) -> dict:
        """Critical cells grouped by dimension (the empty face counts at dimension -1)."""
        out = {}
        for f in self.critical:
            out.setdefault(len(f) - 1, []).append(f)
        return {d: tuple(fs) for d, fs in sorted(out.items())}

    def critical_counts(self) -> dict:
        counts = Counter(map(len, self._critical))
        return {k - 1: counts[k] for k in sorted(counts)}

    def __eq__(self, other):
        if not isinstance(other, Matching):
            return NotImplemented
        return (self.order, self.pairs, self.critical) == (other.order, other.pairs, other.critical)

    def __hash__(self):
        return hash((self.order, self.pairs, self.critical))

    def __repr__(self):
        return f"Matching(order={self.order!r}, pairs={self.pairs!r}, critical={self.critical!r})"

    def to_json_dict(self) -> dict:
        def face(f):
            return [render_label(v) for v in f]
        return {
            "order": [render_label(v) for v in self.order],
            "pairs": [[face(a), face(b)] for a, b in self.pairs],
            "critical": [face(f) for f in self.critical],
            "critical_counts": {str(d): c for d, c in self.critical_counts().items()},
            "empty_face_matched": self.empty_face_matched,
        }


def element_matching(K: SimplicialComplex, order) -> Matching:
    """Run the ordered sweep over the given elements (a duplicate-free subset of V(K))."""
    order = tuple(order)
    idx = [K.index_of(v) for v in order]  # raises on foreign labels
    if len(set(idx)) != len(idx):
        raise MatchingError("duplicate elements in the order")

    # a face waits in the list of the first order element it holds; when it
    # survives that sweep unmatched it moves on to its next one
    end = len(idx)
    sweep_of = [end] * len(K.vertices)
    for p, x in enumerate(idx):
        sweep_of[x] = p
    waiting = [[] for _ in idx]

    def hand_on(f, after):
        """Queue f for the first sweep after `after` whose element it holds."""
        q = end
        for v in f:
            if after < sweep_of[v] < q:
                q = sweep_of[v]
        if q < end:
            waiting[q].append(f)

    pool = set()
    for d in K.dims():
        fs = K.index_faces(d)
        pool.update(fs)
        for f in fs:
            hand_on(f, -1)

    pairs = []
    for p, x in enumerate(idx):
        for bigger in waiting[p]:
            if bigger not in pool:
                continue
            k = bigger.index(x)
            sigma = bigger[:k] + bigger[k + 1:]
            if sigma in pool:
                # the pairs of one sweep are disjoint, so taking them out at
                # once leaves the others' membership unchanged
                pool.discard(sigma)
                pool.discard(bigger)
                pairs.append((sigma, bigger))
            else:
                hand_on(bigger, p)
        waiting[p] = None

    pairs.sort(key=lambda p: (len(p[0]), p[0]))
    return Matching._on_index_faces(
        order, K.vertices, tuple(pairs), tuple(sorted(pool, key=lambda f: (len(f), f))))


def _validate(matching: Matching, K: SimplicialComplex) -> dict:
    """Check the pairing is a total matching by covers on K's faces.

    Every face of K must be matched or critical exactly once, each written
    in K's canonical vertex order (so a facet cut from a matched face is
    spelled like the pair that holds it).  A matching on K's vertex tuple is
    checked on its index faces as held; any other has its labels mapped to
    K's indices first.  Returns the pairing on K's index faces,
    {sigma: partner}, in the order of ``matching.pairs``.
    """
    if matching.vertices == K.vertices:
        pairs, critical = matching._pairs, matching._critical
    else:
        pairs, critical = _label_faces_to_indices(matching, K)
    vs = K.vertices.__getitem__
    face_sets = {d + 1: K._face_set(d) for d in K.dims()}
    seen = set()

    def take(f):
        # K keeps each face as a strictly increasing index tuple, so
        # membership also checks the spelling
        if f not in face_sets.get(len(f), ()):
            raise MatchingError(f"not a face in canonical order: {tuple(map(vs, f))}")
        if f in seen:
            raise MatchingError(f"face used twice: {tuple(map(vs, f))}")
        seen.add(f)

    up = {}
    for sigma, tau in pairs:
        take(sigma)
        take(tau)
        if len(tau) != len(sigma) + 1 or not set(tau).issuperset(sigma):
            raise MatchingError(f"pair is not a cover: {tuple(map(vs, sigma))} - "
                                f"{tuple(map(vs, tau))}")
        up[sigma] = tau
    for f in critical:
        take(f)
    if len(seen) != K.total_faces:
        raise MatchingError(f"matching covers {len(seen)} of {K.total_faces} faces")
    return up


def _label_faces_to_indices(matching: Matching, K: SimplicialComplex):
    """A label matching's pairs and critical cells as index tuples into K.vertices."""
    index = K._index.__getitem__

    def index_face(f):
        try:
            return tuple(map(index, f))
        except (KeyError, TypeError):  # a foreign or an unhashable label
            raise MatchingError(f"not a face in canonical order: {f}") from None

    pairs = []
    for pair in matching.pairs:
        try:
            small, big = pair
        except (TypeError, ValueError):
            raise MatchingError(f"not a pair of faces: {pair!r}") from None
        pairs.append((index_face(small), index_face(big)))
    return pairs, [index_face(f) for f in matching.critical]


def verify_acyclic(matching: Matching, K: SimplicialComplex):
    """Certify the matching has no closed gradient path.

    A cycle in the modified Hasse diagram has as many up-steps as down-steps
    and no two up-steps in a row, since each face is in at most one pair; so
    it alternates between two adjacent dimensions and every lower face on it
    is matched upward.  The search therefore steps only from a matched sigma
    to the other facets of its partner that are matched upward themselves.
    It walks K's index faces; only a witness is spelled in labels.
    Returns (True, None) or (False, witness), the witness being the closed
    path [sigma0, up(sigma0), sigma1, ..., sigma0].
    """
    up = _validate(matching, K)

    def steps(sigma):
        big = up[sigma]
        for k in range(len(big)):
            nxt = big[:k] + big[k + 1:]
            if nxt != sigma and nxt in up:
                yield nxt

    finished = set()
    for start in up:
        if start in finished:
            continue
        path, on_path, stack = [start], {start}, [steps(start)]
        while stack:
            for nxt in stack[-1]:
                if nxt in on_path:
                    cycle = path[path.index(nxt):]
                    witness = [f for s in cycle for f in (s, up[s])] + [nxt]
                    vs = K.vertices.__getitem__
                    return False, [tuple(map(vs, f)) for f in witness]
                if nxt not in finished:
                    path.append(nxt)
                    on_path.add(nxt)
                    stack.append(steps(nxt))
                    break
            else:
                stack.pop()
                done = path.pop()
                on_path.discard(done)
                finished.add(done)
    return True, None


def wedge_conclusion(matching: Matching, K: SimplicialComplex):
    """Read a wedge-of-spheres conclusion off an acyclic matching, if one applies.

    Needs the empty face matched; then all critical cells in one dimension i
    give a wedge of that many i-spheres, and no critical cells at all give a
    contractible conclusion.  Returns None when the shape does not apply.
    """
    ok, witness = verify_acyclic(matching, K)
    if not ok:
        raise MatchingError(f"matching is not acyclic; witness cycle: {witness}")
    return _wedge_from_critical(matching)


def _wedge_from_critical(matching: Matching):
    """wedge_conclusion for a matching already known to be acyclic."""
    if not matching.empty_face_matched:
        return None
    counts = matching.critical_counts()
    if not counts:
        return HomotopyType.contractible()
    if len(counts) == 1:
        ((d, c),) = counts.items()
        return HomotopyType.sphere(d, c)
    return None


def product_matching_order(m: int, n: int):
    """The sweep order that certifies Ind(K_m x K_n): first row, then first column.

    (1,1) < (1,2) < ... < (1,n) < (2,1) < (3,1) < ... < (m,1); with this order
    the critical cells are exactly the pairs {(i,1),(i,j)} with i, j >= 2.
    """
    if m < 2 or n < 2:
        raise ValueError(f"product order needs m, n >= 2, got ({m}, {n})")
    return FAMILIES["product"].morse_order(m, n)
