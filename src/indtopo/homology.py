"""Exact reduced simplicial homology.

Reduced throughout: the augmentation map sends every vertex to the empty
face, so a complex of n isolated points has betti_0 = n - 1 and the empty
complex {[]} has betti_-1 = 1.  Rows and columns are face masks, compared
as integers.  A column comes from its face mask: a facet clears one bit,
and its sign over Z is the parity of the set bits below that bit; mod 2 a
column is the set of its rows, over Z a {row: sign} dict.  The integer
path is one sparse column reduction on +-1 pivots; only the block it
cannot reduce that way goes to a dense Smith normal form, whose factors
above 1 are the torsion.  All arithmetic is arbitrary precision.

A Betti table reduces its boundary maps top-down with clearing (the "twist"
of Chen & Kerber, 2011): each dimension's pivot rows are faces whose own
columns, one dimension down, reduce to zero, so those columns are never
built.  A reduced column c of the map one dimension up is a boundary, hence
a cycle: sum_r c[r] * (column of r) = 0, with every r other than its low s
below s.  Mod 2 that makes the column of s the sum of lower columns, so
every pivot clears.  Over Z only unit pivots clear: with c[s] = +-1 the
column of s is a Z-combination of lower columns, and zeroing it (the
highest cleared face first) is a unimodular column operation, which
changes neither the rank nor the Smith form; with c[s] = 2 it need not be.

Independence complexes are flag complexes, and G's adjacency masks give
their apparent pairs (Bauer, "Ripser", J. Appl. Comput. Topol. 5, 2021).
In mask order a face's highest facet drops its lowest vertex, and its
first cofacet adds the lowest vertex free for it (outside it and adjacent
to none of its vertices).  For a d-face f with lowest vertex l, g = f - l:

1. no vertex below l is free for g: f = g + l is g's first cofacet, and
   column f, highest row g with entry +1, is row g's pivot: every other
   column reaching row g is reduced by it, and it needs no reduction.
2. otherwise, if the lowest vertex u free for f is below l, f is the
   highest facet of f + u, so d(d(f + u)) = 0 makes column f a +-1
   combination of lower columns: it is dropped like a cleared column.
   This reads only the boundary of f + u, so it holds at a window's top.
3. otherwise column f is built.

These arguments, like clearing, only say which columns span the others,
so they hold in any column order.  f is case 1 exactly when g is case 2
and l is the lowest vertex free for g; the empty face is case 2 when there
is a vertex.  So the case-1 d-faces match the case-2 (d-1)-faces, rank d_d
is their number plus r_d, the case-3 d-columns that end as new pivots, and

    b_d = f_d - rank d_d - rank d_(d+1) = (case-3 d-faces) - r_d - r_(d+1).

So r_d <= c_(d-1), the case-3 (d-1)-faces, as b_(d-1) >= 0: d stops at
c_(d-1) new pivots and builds no column when c_(d-1) = 0.  Over Z only
unit pivots count: c_(d-1) of them and the apparent columns, all +-1 on
distinct lows, then span every d-column over Q, so the rest, residual
included, reduce to zero on them; a non-unit pivot may not stop it, as
later columns may still change the residual's Smith form.  A dimension
with no case-3 column calls no kernel, and an integer reduction that
leaves no residual computes no Smith form.

Only case-3 faces are read as columns: a reduction reaching a row g with
no pivot tests g for case 2 from G's adjacency masks and, if it is, builds
g + u as the row's pivot.  ``graph_betti`` runs on
``complexes._classified_skeleton``: it counts every face from the memoised
f-polynomial first, so the face budget trips before any walk, then walks
only the subtrees that can hold case-3 faces and keeps those.
``betti_reduced`` reads every face of any complex as a case-3 column, with
no apparent rows.

Which pairs are apparent depends on the vertex order, and the Betti
numbers and face counts do not.  On a large complex the walk takes its own
order (``complexes._walk_order``), with far fewer case-3 faces on the
table-1 graphs, and hands back the masks it walked, so that the apparent
columns built here use the same labels as the faces it kept.

>>> smith_normal_form([[2, 4], [6, 8]]).factors
(2, 4)
"""

from dataclasses import dataclass, field
from itertools import cycle

from .complexes import SimplicialComplex, _classified_skeleton, facet_masks
from .graphs import bits


@dataclass(frozen=True)
class Boundary:
    """Sparse boundary matrix: columns of (row_index, sign) pairs."""
    n_rows: int
    columns: tuple


def boundary_matrix(cx, d: int) -> Boundary:
    """The boundary map from d-faces to (d-1)-faces; d = 0 is the augmentation.

    Rows index the (d-1)-faces in store order.  Each column lists its
    facets by the vertex they drop, lowest first; the k-th has sign (-1)^k.
    """
    if d < 0:
        raise ValueError(f"boundary_matrix needs d >= 0, got {d}")
    rows = cx.face_masks(d - 1)
    row_of = dict(zip(rows, range(len(rows))))
    return Boundary(len(rows), tuple(
        tuple((row_of[g], s) for g, s in _integer_column(face).items())
        for face in cx.face_masks(d)))


# -- GF(2) ------------------------------------------------------------------

def gf2_columns(boundary: Boundary):
    """Columns as bitsets; signs vanish mod 2."""
    return [sum(1 << r for r, _ in col) for col in boundary.columns]


def _gf2_pivots(columns, apparent=None, most=None):
    """Reduce columns, each a set of rows (consumed), in order, each on its
    highest row, its "low": (the pivots as {low: reduced column}, how many
    of them the columns made).  ``apparent`` (none by default) gives the
    apparent column of a row that has one, else None; a column reaching
    such a row with no pivot there has it built then as the row's pivot.
    Once the columns have made ``most`` pivots (no bound by default), no
    further column is taken, so a bound of 0 takes none.
    """
    pivots, new = {}, 0
    columns = iter(columns)
    while new != most and (col := next(columns, None)) is not None:
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                other = apparent and apparent(low)
                if other is None:
                    pivots[low] = col
                    new += 1
                    break
                pivots[low] = other
            col ^= other
    return pivots, new


def gf2_rank(columns) -> int:
    """Rank over GF(2) of bitset columns; pivots on the highest set row."""
    return _gf2_pivots(set(bits(col)) for col in columns)[1]


def _gf2_column(face: int) -> set:
    """A face mask's column as the set of its facets; signs vanish mod 2."""
    return set(facet_masks(face))


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


def _integer_reduce(columns, apparent=None, most=None):
    """(rank the columns add, invariant factors of the residual block, their
    unit-pivot rows) of integer columns, each a {row: value} dict (consumed).

    The loop of `_gf2_pivots`, with the same ``apparent`` and ``most``,
    reducing only on +-1 entries: a column left with a unit low becomes that
    row's pivot, one with a non-unit low goes to a residual list; only unit
    pivots count towards ``most``.  Then every unit-pivot row of the
    residual, apparent ones included, is cleared from it, highest first (a
    pivot subtracted adds only lower rows), and only that residual block
    goes to the dense Smith normal form.

    Why this is exact: all of the above are unimodular column operations.
    The unit-pivot columns are unit-triangular on their pivot rows, and the
    cleared residual is zero on those rows, so row operations from the pivot
    rows split the pivots off as a direct summand of unit factors.  The rank
    is therefore (number of unit pivots) + (residual rank), and the torsion
    is the residual's factors > 1.  The pivots' factors, all 1, are not
    returned; callers read torsion as the factors > 1.
    """
    pivots = {}      # low row -> reduced column whose entry there is +-1
    units, residual = set(), []
    columns = iter(columns)
    while len(units) != most and (col := next(columns, None)) is not None:
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                other = apparent and apparent(low)
                if other is None:
                    if col[low] in (1, -1):
                        pivots[low] = col
                        units.add(low)
                    else:
                        residual.append(col)
                    break
                pivots[low] = other
            _subtract(col, other, col[low] * other[low])
    if not residual:
        return len(units), (), units
    low = float("inf")
    while (low := max((r for col in residual for r in col if r < low), default=-1)) >= 0:
        other = pivots.get(low) or apparent and apparent(low)
        for col in residual if other else ():
            if low in col:
                _subtract(col, other, col[low] * other[low])
    rows = sorted({r for col in residual for r in col})
    snf = smith_normal_form([[col.get(r, 0) for col in residual] for r in rows])
    return len(units) + snf.rank, snf.factors, units


def _integer_column(face: int) -> dict:
    """A face mask's column as {facet: sign}, the k-th dropped vertex's facet
    with sign (-1)^k."""
    return dict(zip(facet_masks(face), cycle((1, -1))))


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
    faces: int | None = field(default=None, compare=False)   # by the f-polynomial

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


def _betti_table(columns, adjacency, lo: int, hi: int, coefficients: str,
                 window: tuple | None = None) -> BettiTable:
    """Betti numbers of dimensions lo..hi over "z2" or "int" from {d: the
    d-faces read as columns}, dims lo..hi+1: b_d = (columns of d) - r_d -
    r_(d+1), r_d the rank the d-columns add to the apparent ones'.

    One top-down pass with clearing, from the top dimension with columns:
    d builds, one at a time, the columns of its faces that are not pivot
    rows of d + 1 (every pivot mod 2, unit pivots over Z), until they have
    made as many new pivots as d - 1 has columns; with G's ``adjacency``
    masks, a case-2 row with no pivot gets its apparent column.
    """
    column = _gf2_column if coefficients == "z2" else _integer_column
    apparent = None
    if adjacency:
        def apparent(g):
            # case 2: some vertex below g's lowest is free for g; u is the lowest
            for u in range((g & -g).bit_length() - 1 if g else len(adjacency)):
                if not adjacency[u] & g:
                    return column(g | 1 << u)
            return None

    ranks, torsion, cleared = {}, {}, ()
    for d in range(min(hi + 1, max(columns, default=-1)), max(lo, 0) - 1, -1):
        if d not in columns:        # no case-3 column: r_d = 0, no pivot rows
            cleared = ()
            continue
        most = len(columns.get(d - 1, ()))      # r_d <= c_(d-1), as b_(d-1) >= 0
        built = (column(f) for f in columns[d] if f not in cleared)
        if coefficients == "z2":
            cleared, ranks[d] = _gf2_pivots(built, apparent, most)
            continue
        ranks[d], factors, cleared = _integer_reduce(built, apparent, most)
        if d > lo and (tor := tuple(f for f in factors if f > 1)):
            torsion[d - 1] = tor
    betti = {d: len(columns.get(d, ())) - ranks.get(d, 0) - ranks.get(d + 1, 0)
             for d in range(lo, hi + 1)}
    return BettiTable(betti, coefficients, dict(sorted(torsion.items())), window)


def _check_coefficients(coefficients: str):
    if coefficients not in ("z2", "int"):
        raise ValueError(f"unknown coefficients {coefficients!r}")


def betti_reduced(K: SimplicialComplex, coefficients: str = "z2") -> BettiTable:
    """Full-range reduced Betti numbers of any complex, each face a case-3
    column; for Ind(G), ``graph_betti`` reads the apparent pairs too."""
    _check_coefficients(coefficients)
    return _betti_table(K._faces, None, -1, K.dim, coefficients)


def graph_betti(G, coefficients: str = "z2", face_budget: int | None = None,
                window: tuple | None = None) -> BettiTable:
    """Reduced Betti numbers of Ind(G) over "z2" or "int": full range, or
    dimensions lo..hi only for ``window`` = (lo, hi).

    Ind(G)'s faces (in a window, up to dimension hi + 1) are counted, then
    its case-3 faces walked and kept; ``faces`` counts dimensions
    lo - 1..hi + 1, on the full range every face, the empty face included.
    """
    _check_coefficients(coefficients)
    if window is not None:
        lo, hi = window
        if lo < 0 or hi < lo:
            raise ValueError(f"bad window ({lo}, {hi})")
    columns, counts, adjacency = _classified_skeleton(
        G, None if window is None else hi + 1, face_budget)
    if window is None:
        lo, hi = -1, max(k for k, c in enumerate(counts) if c) - 1
    table = _betti_table(columns, adjacency, lo, hi, coefficients, window)
    table.faces = sum(counts[max(lo, 0):hi + 3])
    return table


def betti_window(G, d_lo: int, d_hi: int, face_budget: int | None = None) -> BettiTable:
    """Mod-2 reduced Betti numbers of Ind(G) for dimensions d_lo..d_hi only;
    ``graph_betti`` takes a window in either ring."""
    return graph_betti(G, "z2", face_budget, (d_lo, d_hi))
