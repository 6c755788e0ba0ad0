"""Discrete Morse matchings built by processing elements in a fixed order.

The matching pairs each face sigma in the current pool with sigma + {x}
whenever both are still unpaired, sweeping x through the given order.
Within one sweep the pairing is an involution on the pool, so the result
does not depend on the iteration order inside a step.  The empty face
participates like any other face.  Faces are K's int masks throughout: a
face's partner is ``big ^ bit``, the checker tests covers on masks, and
labels are spelled only for output and for a witness.
"""

from itertools import chain

from .complexes import SimplicialComplex
from .families import FAMILIES
from .graphs import render_label
from .homotopy import HomotopyType


class MatchingError(ValueError):
    """A matching failed validation or an acyclicity precondition."""


class Matching:
    """Pairs (sigma, sigma + {x}) of faces of K, plus the unpaired critical cells.

    ``Matching(order, pairs, critical, K)`` holds face masks of K, each face
    of K once, in no set order, as ``element_matching`` makes them:
    ``pairs`` and ``critical`` render them in labels, in K's face order, the
    first time either is read, while the counts (``pair_count``,
    ``critical_counts``), ``critical_masks``, the checker, equality and
    hashing read the masks.  Two matchings are equal when they share the
    order, K's vertex tuple and the held pairs and critical cells as sets.
    """

    __slots__ = ("_order", "_complex", "_pairs", "_critical", "_label_pairs", "_label_critical")

    def __init__(self, order, pairs, critical, K: SimplicialComplex):
        self._order, self._complex = order, K
        self._pairs, self._critical = pairs, critical
        self._label_pairs = self._label_critical = None

    @property
    def order(self) -> tuple:
        return self._order

    @property
    def vertices(self) -> tuple:
        """The vertex tuple the face masks are over: K's."""
        return self._complex.vertices

    @property
    def pairs(self) -> tuple:
        """The pairs as label tuples, in K's order of the smaller face."""
        if self._label_pairs is None:
            self._render()
        return self._label_pairs

    @property
    def critical(self) -> tuple:
        """The critical cells as label tuples, in K's face order."""
        if self._label_critical is None:
            self._render()
        return self._label_critical

    def _render(self):
        """Spell every face of K once, top vertex last, and read the masks off in order."""
        K = self._complex
        held = {*chain.from_iterable(self._pairs), *self._critical}
        if len(held) < 2 * len(self._pairs) + len(self._critical) or not held <= K._face_set():
            raise MatchingError("a held mask is not a face of the complex, or repeats")
        up, critical = dict(self._pairs), set(self._critical)
        spelled, faces = {0: ()}, [f for d in K.dims() for f in K.face_masks(d)]
        for f in faces[1:]:
            top = f.bit_length() - 1
            spelled[f] = spelled[f ^ (1 << top)] + (K.vertices[top],)
        self._label_pairs = tuple((spelled[s], spelled[up[s]]) for s in faces if s in up)
        self._label_critical = tuple(spelled[f] for f in faces if f in critical)

    @property
    def critical_masks(self):
        """The critical cells as face masks of K."""
        return self._critical

    @property
    def pair_count(self) -> int:
        """Number of pairs, counted on the held faces without rendering labels."""
        return len(self._pairs)

    @property
    def empty_face_matched(self) -> bool:
        return any(small == 0 for small, _ in self._pairs)

    def critical_counts(self) -> dict:
        counts = {}
        for f in self._critical:
            d = f.bit_count() - 1
            counts[d] = counts.get(d, 0) + 1
        return dict(sorted(counts.items()))

    def _key(self):
        return self._order, self.vertices, frozenset(self._pairs), frozenset(self._critical)

    def __eq__(self, other):
        if not isinstance(other, Matching):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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
    # a face waits in the queue of the first element of the order it holds;
    # when it survives that sweep unmatched it moves on to its next one
    before, waiting, swept = {}, {}, 0  # by element bit, in order: earlier elements, queue
    for v in order:
        bit = 1 << K.index_of(v)  # raises on foreign labels
        before[bit], waiting[bit] = swept, []
        swept |= bit
    if len(before) != len(order):
        raise MatchingError("duplicate elements in the order")

    faces = K._face_set()
    pool, pairs, moving = set(faces), [], faces   # moving: all faces, then a sweep's survivors
    for bit, earlier in before.items():
        rest = swept & ~earlier         # this element and the later ones
        for f in moving:                # queue f for its first sweep in rest
            m = f & rest
            while m:
                low = m & -m
                if not m & before[low]:
                    waiting[low].append(f)
                    break
                m ^= low
        moving = []
        for big in waiting.pop(bit):
            if big in pool:
                # the pairs of one sweep are disjoint, so taking them out at
                # once leaves the others' membership unchanged
                if big ^ bit in pool:
                    pool.discard(big)
                    pool.discard(big ^ bit)
                    pairs.append((big ^ bit, big))
                else:
                    moving.append(big)
    return Matching(order, tuple(pairs), tuple(pool), K)


def _validate(matching: Matching, K: SimplicialComplex) -> dict:
    """Check the pairing is a total matching by covers on K's faces.

    The matching must be over K's vertex tuple, and every face of K matched
    or critical exactly once.  Returns the pairing on K's face masks,
    {sigma: partner}, in the order of the matching's pairs.
    """
    if matching.vertices != K.vertices:
        raise MatchingError("the matching's faces are over another vertex tuple than the complex's")
    pairs, critical, faces = matching._pairs, matching._critical, K._face_set()
    up = dict(pairs)
    held = set(up.values())   # a set made from the dict would resize again for its values
    held.update(up, critical)
    if len(held) < 2 * len(pairs) + len(critical) or not held <= faces:
        seen = set()  # name the first held mask that is foreign or repeats
        for f in chain(chain.from_iterable(pairs), critical):
            if f not in faces:
                raise MatchingError(f"not a face of the complex: {f!r}")
            if f in seen:
                raise MatchingError(f"face used twice: {K.labels(f)}")
            seen.add(f)
    for sigma, tau in pairs:
        if sigma | tau != tau or (tau ^ sigma).bit_count() != 1:
            raise MatchingError(f"pair is not a cover: {K.labels(sigma)} - {K.labels(tau)}")
    if len(held) != len(faces):
        raise MatchingError(f"matching covers {len(held)} of {len(faces)} faces")
    return up


def verify_acyclic(matching: Matching, K: SimplicialComplex):
    """Certify the matching has no closed gradient path.

    A cycle in the modified Hasse diagram has as many up-steps as down-steps
    and no two up-steps in a row, since each face is in at most one pair; so
    it alternates between two adjacent dimensions and every lower face on it
    is matched upward.  The search therefore steps only from a matched sigma
    to the other facets of its partner that are matched upward themselves.
    It walks K's face masks; only a witness is spelled in labels.
    Returns (True, None) or (False, witness), the witness being the closed
    path [sigma0, up(sigma0), sigma1, ..., sigma0].
    """
    up = _validate(matching, K)
    steps = {}  # sigma -> the other facets of up[sigma] matched upward, if any
    for sigma, big in up.items():
        g = sigma
        while g:  # each facet but sigma drops a vertex of sigma
            low = g & -g
            g ^= low
            if big ^ low in up:
                steps.setdefault(sigma, []).append(big ^ low)

    finished = set()
    for start in steps:
        if start in finished:
            continue
        path, on_path, stack = [start], {start}, [iter(steps[start])]
        while stack:
            for nxt in stack[-1]:
                if nxt in on_path:
                    cycle = path[path.index(nxt):]
                    witness = [f for s in cycle for f in (s, up[s])] + [nxt]
                    return False, [K.labels(f) for f in witness]
                if nxt in steps and nxt not in finished:
                    path.append(nxt)
                    on_path.add(nxt)
                    stack.append(iter(steps[nxt]))
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
