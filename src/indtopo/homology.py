"""Exact reduced simplicial homology.

Reduced throughout: the augmentation map sends every vertex to the empty
face, so a complex of n isolated points has betti_0 = n - 1 and the empty
complex {[]} has betti_-1 = 1.  A boundary column comes from its face mask:
a facet clears one bit, and its sign over Z is the parity of the set bits
below that bit.  Mod-2 ranks use python-int bitsets.  The
integer path is one sparse column reduction on +-1 pivots; only the block
it cannot reduce that way goes to a dense Smith normal form, whose factors
above 1 are the torsion.  All arithmetic is arbitrary precision (overflow is
impossible).

A Betti table reduces its boundary maps top-down with clearing (the "twist"
of Chen & Kerber, 2011): each dimension's pivot rows are faces whose own
columns, one dimension down, reduce to zero, so those columns are never
built.  A reduced column c of the map one dimension up is a boundary, hence
a cycle: sum_r c[r] * (column of r) = 0, with every r other than its low s
below s.  Mod 2 that makes the column of s the sum of lower columns, so
every pivot clears.  Over Z only unit pivots clear: with c[s] = +-1 the
column of s is a Z-combination of lower columns, and zeroing it (the
highest cleared face first) is a unimodular column operation, which
changes neither the rank nor the Smith form; with c[s] = 2, say, it need
not be.

Ind(G) and its skeletons keep G's adjacency masks, and with them the
apparent pairs of Bauer ("Ripser: efficient computation of Vietoris-Rips
persistence barcodes", J. Appl. Comput. Topol. 5, 2021) come free, since
independence complexes are flag complexes.  Rows are in lexicographic
order, so a face's highest-row facet drops its lowest vertex, and its first
cofacet adds the lowest vertex free for it (outside it and adjacent to none
of its vertices).  For a d-face f with lowest vertex l and g = f - l:

1. no vertex below l is free for g: f is g's first cofacet, so no column
   left of f has row g, and column f is already reduced, with pivot row g
   and entry +1 (over Z too).  It is counted, and built only when a
   reduction reaches row g.
2. otherwise, if the lowest vertex u free for f is below l, f is the
   highest-row facet of its first cofacet f + u: (f, f + u) is an apparent
   pair one dimension up, f a unit pivot row there, and column f is
   skipped as above.  The argument reads only the boundary of f + u, whose
   facets are all d-faces, so it clears a window's top dimension too,
   where f + u is never enumerated.
3. otherwise column f is built.

A window's walk knows each face's case when it makes the face, and of its
top dimension stores only the case-3 faces: the apparent ones are counted
from the case-2 faces g one dimension down (g is the row of g + u, u the
lowest vertex free for g), and the zero ones are only counted.
``from_facets`` complexes hold no masks and build every column not cleared.

>>> smith_normal_form([[2, 4], [6, 8]]).factors
(2, 4)
"""

from dataclasses import dataclass, field
from functools import partial
from itertools import cycle

from .complexes import SimplicialComplex, _classified_skeleton, facet_masks


@dataclass(frozen=True)
class Boundary:
    """Sparse boundary matrix: columns of (row_index, sign) pairs."""
    n_rows: int
    columns: tuple


def _row_lookup(cx, d: int):
    """The row index of each (d-1)-face, the rows of the d-faces' columns."""
    rows = cx.face_masks(d - 1)
    return dict(zip(rows, range(len(rows)))).__getitem__


def boundary_matrix(cx, d: int) -> Boundary:
    """The boundary map from d-faces to (d-1)-faces; d = 0 is the augmentation.

    Each column lists its facets by the vertex they drop, lowest first; the
    k-th has sign (-1)^k.
    """
    if d < 0:
        raise ValueError(f"boundary_matrix needs d >= 0, got {d}")
    row_of = _row_lookup(cx, d)
    return Boundary(cx.face_count(d - 1), tuple(
        tuple(_integer_column(row_of, face).items()) for face in cx.face_masks(d)))


# -- GF(2) ------------------------------------------------------------------

def gf2_columns(boundary: Boundary):
    """Columns as bitsets; signs vanish mod 2."""
    return [sum(1 << r for r, _ in col) for col in boundary.columns]


def _gf2_pivots(columns, apparent=(), build=None) -> dict:
    """Reduce bitset columns in order; the pivots as {low: reduced column}.

    A column's low is its highest set row, the same "low" as in
    `_integer_reduce`; on boundary columns in face order it keeps fill-in
    small.  ``apparent`` maps a row to the face of an apparent column not
    yet built (none by default): a column reaching that row has ``build``
    make its pivot then.
    """
    pivots = {}
    for col in columns:
        while col:
            low = col.bit_length() - 1
            other = pivots.get(low)
            if other is None:
                if low not in apparent:
                    pivots[low] = col
                    break
                other = pivots[low] = build(apparent.pop(low))
            col ^= other
    return pivots


def gf2_rank(columns) -> int:
    """Rank over GF(2) of bitset columns; pivots on the highest set row."""
    return len(_gf2_pivots(columns))


def _gf2_column(row_of, face: int) -> int:
    """A face mask's column as a bitset of its facets' rows; signs vanish mod 2."""
    col = 0
    for r in map(row_of, facet_masks(face)):
        col |= 1 << r
    return col


# -- integer Smith normal form ------------------------------------------------

@dataclass
class SmithNormalForm:
    factors: tuple
    rank: int


def smith_normal_form(matrix) -> SmithNormalForm:
    """Invariant factors (positive, each dividing the next) and rank over Z.

    One pivot-and-delete loop: an entry p of least absolute value clears its
    column and row by floor quotients, and a nonzero remainder pivots next.
    If p misses an entry, that entry's row is added to p's row; otherwise
    |p| is the next factor and p's row and column are deleted.
    """
    A = [[int(x) for x in row] for row in matrix]
    n = len(A[0]) if A else 0
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    factors = []
    while any(map(any, A)):
        _, i, j = min((abs(v), i, j) for i, row in enumerate(A) for j, v in enumerate(row) if v)
        pivot_row, p = A[i], A[i][j]
        for r, row in enumerate(A):
            if r != i and row[j]:
                q = row[j] // p
                A[r] = [a - q * b for a, b in zip(row, pivot_row)]
        for c, v in enumerate(pivot_row):
            if c != j and v:
                q = v // p
                for row in A:
                    row[c] -= q * row[j]
        if sum(map(bool, pivot_row)) + sum(1 for row in A if row[j]) > 2:
            continue  # a remainder is left: it pivots next
        missed = next((row for row in A if any(v % p for v in row)), None)
        if missed is not None:
            A[i] = [a + b for a, b in zip(pivot_row, missed)]
            continue
        factors.append(abs(p))
        A = [row[:j] + row[j + 1:] for r, row in enumerate(A) if r != i]
    return SmithNormalForm(tuple(factors), len(factors))


def _integer_reduce(columns, apparent=(), build=None):
    """(rank, invariant factors of the residual block, unit-pivot rows) of
    integer columns, each a {row: value} dict (consumed).

    Column reduction in the loop shape of `_gf2_pivots`, with the same
    ``apparent`` and ``build``: each column is reduced on its highest row
    ("low") against earlier columns whose entry there is +-1.  A column
    left with a unit low becomes that row's pivot; one left with a non-unit
    low goes to a residual list.  Afterwards every unit-pivot row, apparent
    ones included, is cleared from the residual columns, highest row first,
    and only that residual block goes to the dense Smith normal form.

    Why this is exact: all of the above are unimodular column operations.
    The unit-pivot columns are unit-triangular on their pivot rows, and the
    cleared residual is zero on those rows, so row operations from the pivot
    rows split the pivots off as a direct summand of unit factors.  The rank
    is therefore (number of unit pivots) + (residual rank), and the torsion
    is the residual's factors > 1.  The pivots' factors, all 1, are not
    returned; callers read torsion as the factors > 1.
    """
    pivots = {}      # low row -> reduced column whose entry there is +-1
    residual = []
    for col in columns:
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                if low not in apparent:
                    if col[low] in (1, -1):
                        pivots[low] = col
                    else:
                        residual.append(col)
                    break
                other = pivots[low] = build(apparent.pop(low))
            _subtract(col, other, col[low] * other[low])
    units = {*pivots, *apparent}
    for low in sorted(units, reverse=True) if residual else ():
        other = None
        for col in residual:
            if low in col:
                other = other or pivots.get(low) or build(apparent[low])
                _subtract(col, other, col[low] * other[low])
    rows = sorted({r for col in residual for r in col})
    if not rows:
        return len(units), (), units
    snf = smith_normal_form([[col.get(r, 0) for col in residual] for r in rows])
    return len(units) + snf.rank, snf.factors, units


def _integer_column(row_of, face: int) -> dict:
    """A face mask's column as {row: sign} of its facets, the k-th dropped
    vertex's facet with sign (-1)^k."""
    return dict(zip(map(row_of, facet_masks(face)), cycle((1, -1))))


def _subtract(col: dict, other: dict, q: int):
    """col -= q * other, dropping zeros, in place."""
    for r, v in other.items():
        new = col.get(r, 0) - q * v
        if new:
            col[r] = new
        else:
            del col[r]


# -- Betti tables ---------------------------------------------------------------

@dataclass
class BettiTable:
    """Reduced Betti numbers, optionally restricted to a dimension window."""
    betti: dict
    coefficients: str                     # "z2" or "int"
    torsion: dict = field(default_factory=dict)
    window: tuple | None = None
    faces: int | None = field(default=None, compare=False)   # counted by a window

    def value(self, d: int) -> int:
        if self.window is not None:
            lo, hi = self.window
            if not lo <= d <= hi:
                raise ValueError(f"dimension {d} outside window {self.window}")
        return self.betti.get(d, 0)

    def nonzero(self) -> dict:
        return {d: v for d, v in sorted(self.betti.items()) if v}

    def euler(self) -> int:
        if self.window is not None:
            raise ValueError("Euler characteristic needs a full-range table")
        # (-1) ** -1 is a float, so branch on parity instead
        return sum(-v if d % 2 else v for d, v in self.betti.items())

    def matches(self, expected: dict) -> bool:
        """Equality against a dim -> multiplicity map on all asserted dimensions."""
        if self.window is not None:
            lo, hi = self.window
            return all(self.betti.get(d, 0) == expected.get(d, 0) for d in range(lo, hi + 1))
        dims = set(self.betti) | set(expected)
        return all(self.betti.get(d, 0) == expected.get(d, 0) for d in dims)

    def to_json_dict(self) -> dict:
        d = {
            "coefficients": self.coefficients,
            "window": list(self.window) if self.window else None,
            "betti": {str(k): v for k, v in sorted(self.betti.items())},
        }
        if self.coefficients == "int":
            d["torsion"] = {str(k): list(v) for k, v in sorted(self.torsion.items()) if v}
        return d

    def csv_rows(self):
        rows = ["dimension,betti,torsion"]
        for d in sorted(self.betti):
            tor = ";".join(str(t) for t in self.torsion.get(d, ()))
            rows.append(f"{d},{self.betti[d]},{tor}")
        return rows

    def render(self) -> str:
        nz = self.nonzero()
        if not nz:
            return "all zero"
        return ", ".join(f"b{d}={v}" for d, v in nz.items())


def _column_case(adjacency, face: int) -> int:
    """Which of the three cases of the module docstring a d-face's column is
    in: 1 apparent, 2 reduces to zero, 3 built; G's adjacency masks decide.

    B is the set of vertices below the face's lowest vertex l free for the
    face minus l, C those of B not adjacent to l: 2 if C, else 3 if B, else 1.
    """
    low = face & -face
    free, rest = low - 1, face ^ low
    while free and rest:
        v = rest & -rest
        rest ^= v
        free &= ~adjacency[v.bit_length() - 1]
    return 2 if free & ~adjacency[low.bit_length() - 1] else 3 if free else 1


def _faces_to_build(store, d: int, cleared, apparent: dict, row_of, cases=None):
    """The d-faces whose columns are built, in order.

    Cleared faces and case-2 faces are skipped, and each apparent face goes
    into ``apparent`` by its pivot row instead, while the faces are read, so
    a reduction sees every apparent column to its left.  Cases come from
    ``cases`` (one per face) if given, else from the store's masks, if any.
    """
    adjacency = store.adjacency
    for j, f in enumerate(store.face_masks(d)):
        if j not in cleared:
            case = (cases[j] if cases else
                    3 if adjacency is None else _column_case(adjacency, f))
            if case == 1:
                apparent[row_of(f & (f - 1))] = f
            elif case == 3:
                yield f


def boundary_rank(store, d: int, coefficients: str, cleared, cases=None):
    """(rank, residual invariant factors, pivot rows) of the boundary map from
    d-faces to (d-1)-faces of a face store, over "z2" or "int" coefficients.

    Columns are built straight from the face masks, one at a time, and the
    d-faces at indices in ``cleared`` are skipped: they must be pivot rows
    of the map one dimension up (every pivot mod 2, unit pivots over Z),
    whose columns reduce to zero.  On a store with adjacency masks, apparent
    columns are counted and built only when a reduction reaches their row,
    and case-2 columns are skipped too.  The returned pivot rows, apparent
    ones included, are what the next dimension down may clear.  Factors are
    () mod 2.  ``cases`` may give the case of each d-face.
    """
    row_of, apparent, z2 = _row_lookup(store, d), {}, coefficients == "z2"
    build = partial(_gf2_column if z2 else _integer_column, row_of)
    columns = map(build, _faces_to_build(store, d, cleared, apparent, row_of, cases))
    if not z2:
        return _integer_reduce(columns, apparent, build)
    pivots = _gf2_pivots(columns, apparent, build)
    return len(pivots) + len(apparent), (), {*pivots, *apparent}


def _top_rank(K, d: int, built, cases):
    """(rank, pivot rows) mod 2 of the map from dimension d, of which only
    the case-3 faces ``built`` are stored; ``cases`` are the (d-1)-faces'.

    A case-2 g's apparent column g + u (u, below g, the first vertex adjacent
    to none of g) is built when a reduction reaches row g.  The apparent
    rows are left out of the pivot rows: case 2, they are skipped anyway.
    """
    row_of, adjacency = _row_lookup(K, d), K.adjacency
    apparent = {r: g for r, (g, case) in enumerate(zip(K.face_masks(d - 1), cases)) if case == 2}

    def build(g):
        return _gf2_column(row_of, g | next(1 << v for v, m in enumerate(adjacency) if not m & g))

    pivots = _gf2_pivots((_gf2_column(row_of, f) for f in built), apparent, build)
    return len(pivots) + len(apparent), pivots


def _betti_table(store, lo: int, hi: int, coefficients: str,
                 window: tuple | None = None, cases=None, top=None) -> BettiTable:
    """Betti numbers of dimensions lo..hi from a face store holding dims lo-1..hi+1.

    One top-down pass with clearing: dimension d skips the columns of the
    pivot rows of dimension d + 1.  ``cases`` may give each dimension's
    column cases, and ``top`` the (rank, pivot rows) of dimension hi + 1.
    """
    ranks = {}
    factors = {}
    cleared = frozenset()
    dims = range(hi + 1, max(lo, 0) - 1, -1)
    if top is not None:
        (ranks[hi + 1], cleared), dims = top, dims[1:]
    for d in dims:
        if store.face_count(d) == 0:
            cleared = frozenset()
            continue
        ranks[d], factors[d], cleared = boundary_rank(
            store, d, coefficients, cleared, cases and cases[d])
    betti = {}
    torsion = {}
    for d in range(lo, hi + 1):
        betti[d] = store.face_count(d) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        tor = tuple(f for f in factors.get(d + 1, ()) if f > 1)
        if tor:
            torsion[d] = tor
    return BettiTable(betti, coefficients, torsion, window)


def betti_reduced(K: SimplicialComplex, coefficients: str = "z2") -> BettiTable:
    """Full-range reduced Betti numbers of a complex."""
    if coefficients not in ("z2", "int"):
        raise ValueError(f"unknown coefficients {coefficients!r}")
    return _betti_table(K, -1, K.dim, coefficients)


def betti_window(G, d_lo: int, d_hi: int, face_budget: int | None = None) -> BettiTable:
    """Mod-2 reduced Betti numbers of Ind(G) for dimensions d_lo..d_hi only.

    One walk enumerates Ind(G) up to dimension d_hi + 1 and classifies each
    face as it makes it; ``faces`` counts dimensions d_lo - 1..d_hi + 1.
    """
    if d_lo < 0 or d_hi < d_lo:
        raise ValueError(f"bad window ({d_lo}, {d_hi})")
    K, cases, built, top_faces = _classified_skeleton(G, d_hi + 1, face_budget)
    table = _betti_table(K, d_lo, d_hi, "z2", (d_lo, d_hi), cases,
                         _top_rank(K, d_hi + 1, built, cases[d_hi]))
    table.faces = top_faces + sum(map(K.face_count, range(d_lo - 1, d_hi + 1)))
    return table
