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

Independence complexes are flag complexes, and G's adjacency masks give
their apparent pairs (Bauer, "Ripser: efficient computation of
Vietoris-Rips persistence barcodes", J. Appl. Comput. Topol. 5, 2021).
Rows are in lexicographic order, so a face's highest-row facet drops its
lowest vertex, and its first cofacet adds the lowest vertex free for it
(outside it and adjacent to none of its vertices).  For a d-face f with
lowest vertex l and g = f - l:

1. no vertex below l is free for g: f is g's first cofacet, so no column
   left of f has row g, and column f is already reduced, with pivot row g
   and entry +1 (over Z too).
2. otherwise, if the lowest vertex u free for f is below l, f is the
   highest-row facet of its first cofacet f + u: (f, f + u) is an apparent
   pair one dimension up, f a unit pivot row there, and column f reduces
   to zero, as a cleared column does.  The argument reads only the
   boundary of f + u, whose facets are all d-faces, so it holds at a
   window's top dimension too, where f + u is never enumerated.
3. otherwise column f is built.

The first two cases pair up: f is case 1 exactly when g is case 2 and f is
g + u, u the lowest vertex free for g, and the empty face is case 2 when
there is a vertex.  So one rule serves every dimension: the rows of the
map from d-faces that apparent columns pivot on are the case-2
(d-1)-faces g, counted, and column g + u is built only when a reduction
reaches row g; of the d-faces, only the case-3 ones are read as columns.
``complexes._classified_skeleton`` decides each face's case as its walk
makes the face, and keeps of a window's top dimension only the case-3
faces.  ``graph_betti`` and ``betti_window`` run on that walk;
``betti_reduced`` takes every face of any complex as case 3 and builds
every column not cleared.

>>> smith_normal_form([[2, 4], [6, 8]]).factors
(2, 4)
"""

from dataclasses import dataclass, field
from itertools import cycle

from .complexes import SimplicialComplex, _classified_skeleton, facet_masks


@dataclass(frozen=True)
class Boundary:
    """Sparse boundary matrix: columns of (row_index, sign) pairs."""
    n_rows: int
    columns: tuple


def _rows(cx, d: int) -> dict:
    """{(d-1)-face: its row index}, the rows of the d-faces' columns."""
    rows = cx.face_masks(d - 1)
    return dict(zip(rows, range(len(rows))))


def boundary_matrix(cx, d: int) -> Boundary:
    """The boundary map from d-faces to (d-1)-faces; d = 0 is the augmentation.

    Each column lists its facets by the vertex they drop, lowest first; the
    k-th has sign (-1)^k.
    """
    if d < 0:
        raise ValueError(f"boundary_matrix needs d >= 0, got {d}")
    row_of = _rows(cx, d).__getitem__
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
    small.  ``apparent`` maps the pivot row of each apparent column not yet
    built to that row's face (none by default): a column reaching the row
    has ``build`` make the apparent column from the face then.
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
    col, rest = 0, face
    while rest:
        low = rest & -rest
        col |= 1 << row_of(face ^ low)
        rest ^= low
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
    faces: int | None = field(default=None, compare=False)   # counted by a walk

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


def boundary_rank(store, d: int, coefficients: str, cleared, cases, adjacency):
    """(rank, residual invariant factors, pivot rows) of the boundary map from
    d-faces to (d-1)-faces of a face store, over "z2" or "int" coefficients.

    ``cases`` holds each dimension's column cases in face order (module
    docstring).  Columns are built straight from the face masks, one at a
    time, of the case-3 d-faces whose indices are not in ``cleared``, the
    pivot rows of the map one dimension up (every pivot mod 2, unit pivots
    over Z), whose columns reduce to zero.  Each case-2 (d-1)-face g is the
    row of an apparent column, counted, and built from g and G's
    ``adjacency`` masks only when a reduction reaches row g.  The returned
    pivot rows are what the next dimension down may clear.  Factors are ()
    mod 2.
    """
    if not store.face_count(d):     # nothing to build: only apparent columns count
        return cases[d - 1].count(2), (), ()
    rows = _rows(store, d)
    row_of = rows.__getitem__
    column = _gf2_column if coefficients == "z2" else _integer_column
    apparent = {r: g for (g, r), case in zip(rows.items(), cases[d - 1])
                if case == 2} if 2 in cases[d - 1] else {}

    def build_apparent(g):
        for v, m in enumerate(adjacency):
            if not m & g:
                return column(row_of, g | 1 << v)

    columns = (column(row_of, f) for j, (f, case) in enumerate(zip(store.face_masks(d), cases[d]))
               if case == 3 and j not in cleared)
    if coefficients == "int":
        return _integer_reduce(columns, apparent, build_apparent)
    pivots = _gf2_pivots(columns, apparent, build_apparent)
    return len(pivots) + len(apparent), (), pivots


def _betti_table(store, cases, adjacency, lo: int, hi: int, coefficients: str,
                 window: tuple | None = None) -> BettiTable:
    """Betti numbers of dimensions lo..hi from a face store holding dims
    lo-1..hi+1, of which dim hi+1 needs only its case-3 faces.

    One top-down pass with clearing: dimension d skips the columns of the
    pivot rows of dimension d + 1.
    """
    ranks = {}
    factors = {}
    cleared = frozenset()
    for d in range(hi + 1, max(lo, 0) - 1, -1):
        ranks[d], factors[d], cleared = boundary_rank(
            store, d, coefficients, cleared, cases, adjacency)
    betti = {}
    torsion = {}
    for d in range(lo, hi + 1):
        betti[d] = store.face_count(d) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        tor = tuple(f for f in factors.get(d + 1, ()) if f > 1)
        if tor:
            torsion[d] = tor
    return BettiTable(betti, coefficients, torsion, window)


def _check_coefficients(coefficients: str):
    if coefficients not in ("z2", "int"):
        raise ValueError(f"unknown coefficients {coefficients!r}")


def betti_reduced(K: SimplicialComplex, coefficients: str = "z2") -> BettiTable:
    """Full-range reduced Betti numbers of any complex, every column not
    cleared built: each face is case 3 to the kernel.  For Ind(G),
    ``graph_betti`` reads the apparent pairs too."""
    _check_coefficients(coefficients)
    cases = {d: b"\3" * K.face_count(d) for d in K.dims()}
    return _betti_table(K, cases, (), -1, K.dim, coefficients)


def graph_betti(G, coefficients: str = "z2", face_budget: int | None = None) -> BettiTable:
    """Full-range reduced Betti numbers of Ind(G) over "z2" or "int".

    One walk enumerates Ind(G) and classifies each face as it makes it;
    ``faces`` counts every face, the empty face included.
    """
    _check_coefficients(coefficients)
    K, cases, adjacency, faces = _classified_skeleton(G, None, face_budget)
    table = _betti_table(K, cases, adjacency, -1, K.dim, coefficients)
    table.faces = faces
    return table


def betti_window(G, d_lo: int, d_hi: int, face_budget: int | None = None) -> BettiTable:
    """Mod-2 reduced Betti numbers of Ind(G) for dimensions d_lo..d_hi only.

    One walk enumerates Ind(G) up to dimension d_hi + 1 and classifies each
    face as it makes it; ``faces`` counts dimensions d_lo - 1..d_hi + 1.
    """
    if d_lo < 0 or d_hi < d_lo:
        raise ValueError(f"bad window ({d_lo}, {d_hi})")
    K, cases, adjacency, faces = _classified_skeleton(G, d_hi + 1, face_budget)
    table = _betti_table(K, cases, adjacency, d_lo, d_hi, "z2", (d_lo, d_hi))
    table.faces = faces - sum(map(K.face_count, range(-1, d_lo - 1)))
    return table
