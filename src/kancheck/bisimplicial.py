"""Truncated bisimplicial sets: commuting horizontal and vertical structures.

The first index p is horizontal, the second q vertical.  A bisimplicial set
is stored as its rows and its columns: row q is the simplicial set
p -> X_{p,q} carrying the horizontal tables, column p the simplicial set
q -> X_{p,q} carrying the vertical tables.  Rows and columns share the
bisimplex ids of each level, so every table lives in exactly one validated
simplicial set, and rows, columns and the transpose are read off without
copying.  The diagonal composes one row table with one column table; the
diagonal of an external product is built directly as the product of its
factors, and the diagonal of a ``tensor`` carries the product of its
factors' group actions, as that product does.  The laws are checked on the
tables too: rows and columns by the simplicial identities, and each
horizontal/vertical commutation at a level as one comparison of gathered
columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Callable, Sequence, TypeVar

from .errors import RejectedInput, TruncationError
from .simplicial import (
    ProductAction,
    Simplex,
    SimplicialMap,
    TruncatedSimplicialSet,
    _mismatches,
    _pairs,
    gather,
    point,
    validate_simplicial_identities,
)

T = TypeVar("T")


def _in_line(what: str, build: Callable[..., T], *args) -> T:
    """Build one row or column object, naming the line in any rejection."""
    try:
        return build(*args)
    except RejectedInput as exc:
        raise RejectedInput(f"{what}: {exc}") from None


def _same_labels(r: TruncatedSimplicialSet, p: int, col: TruncatedSimplicialSet, q: int) -> bool:
    """Whether row level p and column level q label alike: the same label
    function, or functions that render the same strings."""
    if r._labels is not None and col._labels is not None and r._labels[p] is col._labels[q]:
        return True
    return r.labels_at(p) == col.labels_at(q)


def _line(lines: Sequence[T], k: int, what: str, bounds: tuple[int, int]) -> T:
    if not 0 <= k < len(lines):
        raise RejectedInput(f"{what} index {k} outside bounds {bounds}")
    return lines[k]


class TruncatedBisimplicialSet:
    """Doubly indexed simplex tables, given as rows and columns.

    ``rows[q]`` carries the horizontal tables of p -> X_{p,q} and
    ``columns[p]`` the vertical tables of q -> X_{p,q}; every row and column
    must agree on the count and labels of the level they share.  ``_factors``
    is ``(A, B)`` for ``tensor(A, B)``, else None; equality does not read it.
    """

    __slots__ = ("bounds", "counts", "rows", "columns", "_factors")

    def __init__(
        self, rows: Sequence[TruncatedSimplicialSet], columns: Sequence[TruncatedSimplicialSet]
    ) -> None:
        rows, columns = tuple(rows), tuple(columns)
        if not rows or not columns:
            raise RejectedInput("need at least one row and one column")
        P, Q = len(columns) - 1, len(rows) - 1
        if any(r.bound != P for r in rows) or any(c.bound != Q for c in columns):
            raise RejectedInput(f"need {Q + 1} rows of bound {P} and {P + 1} columns of bound {Q}")
        for p, col in enumerate(columns):
            for q, r in enumerate(rows):
                if r.counts[p] != col.counts[q] or not _same_labels(r, p, col, q):
                    raise RejectedInput(f"row {q} and column {p} disagree on level ({p},{q})")
        self.bounds = (P, Q)
        self.counts = tuple(col.counts for col in columns)
        self.rows = rows
        self.columns = columns
        self._factors: tuple[TruncatedSimplicialSet, TruncatedSimplicialSet] | None = None

    def size(self, p: int, q: int) -> int:
        if not (0 <= p <= self.bounds[0] and 0 <= q <= self.bounds[1]):
            raise TruncationError(f"level ({p},{q}) outside bounds {self.bounds}")
        return self.counts[p][q]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedBisimplicialSet):
            return NotImplemented
        return self.rows == other.rows and self.columns == other.columns

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TruncatedBisimplicialSet(bounds={self.bounds})"


def point_bisimplicial(P: int, Q: int) -> TruncatedBisimplicialSet:
    return TruncatedBisimplicialSet([point(P)] * (Q + 1), [point(Q)] * (P + 1))


def row(X: TruncatedBisimplicialSet, q: int) -> TruncatedSimplicialSet:
    """The simplicial set p -> X_{p,q} carrying the horizontal tables."""
    return _line(X.rows, q, "row", X.bounds)


def column(X: TruncatedBisimplicialSet, p: int) -> TruncatedSimplicialSet:
    """The simplicial set q -> X_{p,q} carrying the vertical tables."""
    return _line(X.columns, p, "column", X.bounds)


def diagonal(X: TruncatedBisimplicialSet) -> TruncatedSimplicialSet:
    """The simplicial set n -> X_{n,n} with d_i = d_i^h d_i^v, s_i = s_i^h s_i^v.

    Ids are inherited unchanged from the (n,n) tables, so diagonal simplices
    and bisimplices can be converted back and forth by reindexing alone.  Each
    table is one gather: the row table read at the entries of the column table.
    The diagonal of ``tensor(A, B)`` has the ids of ``product(A, B)``, so it
    carries the same action, :class:`ProductAction` of the factors, when
    either factor has one.
    """
    bound = min(X.bounds)
    rows, cols = X.rows, X.columns
    counts = [X.counts[n][n] for n in range(bound + 1)]
    faces = [[]] + [
        [gather(rows[n - 1]._faces[n][i], cols[n]._faces[n][i]) for i in range(n + 1)]
        for n in range(1, bound + 1)
    ]
    degens = [
        [gather(rows[n + 1]._degens[n][i], cols[n]._degens[n][i]) for i in range(n + 1)]
        for n in range(bound)
    ] + [[]]
    labels = None
    if rows[0]._labels is not None:
        labels = [rows[n]._labels[n] for n in range(bound + 1)]
    D = TruncatedSimplicialSet(counts, faces, degens, labels)
    if X._factors is not None:
        D._action = _product_action(*X._factors)
    return D


def transpose(X: TruncatedBisimplicialSet) -> TruncatedBisimplicialSet:
    """Swap the two gradings: the rows become the columns and vice versa."""
    return TruncatedBisimplicialSet(X.columns, X.rows)


def _pair_label(
    A: TruncatedSimplicialSet, p: int, B: TruncatedSimplicialSet, q: int, width: int, idx: int
) -> str:
    a, b = divmod(idx, width)
    return f"({A.label(Simplex(p, a))},{B.label(Simplex(q, b))})"


def tensor(A: TruncatedSimplicialSet, B: TruncatedSimplicialSet) -> TruncatedBisimplicialSet:
    """The external product: (A (x) B)_{p,q} = A_p x B_q.

    Ids are packed row-major with the B factor minor.  Row q is A acting on
    the first coordinate of A_p x B_q, column p is B acting on the second, so
    the required commutation holds by construction.  The result records its
    factors, for :func:`diagonal`.
    """
    P, Q = A.bound, B.bound

    def on_first(table: Sequence[int], width: int) -> list[int]:
        return _pairs(table, range(width), width)

    def on_second(table: Sequence[int], height: int, width: int) -> list[int]:
        return _pairs(range(height), table, width)

    labels = [
        [partial(_pair_label, A, p, B, q, B.counts[q]) for q in range(Q + 1)]
        for p in range(P + 1)
    ]
    rows = [
        TruncatedSimplicialSet(
            [A.counts[p] * B.counts[q] for p in range(P + 1)],
            [[on_first(t, B.counts[q]) for t in A._faces[p]] for p in range(P + 1)],
            [[on_first(t, B.counts[q]) for t in A._degens[p]] for p in range(P + 1)],
            [labels[p][q] for p in range(P + 1)],
        )
        for q in range(Q + 1)
    ]
    columns = [
        TruncatedSimplicialSet(
            [A.counts[p] * B.counts[q] for q in range(Q + 1)],
            [[]] + [
                [on_second(t, A.counts[p], B.counts[q - 1]) for t in B._faces[q]]
                for q in range(1, Q + 1)
            ],
            [
                [on_second(t, A.counts[p], B.counts[q + 1]) for t in B._degens[q]]
                for q in range(Q)
            ] + [[]],
            labels[p],
        )
        for p in range(P + 1)
    ]
    X = TruncatedBisimplicialSet(rows, columns)
    X._factors = (A, B)
    return X


def _product_action(A: TruncatedSimplicialSet, B: TruncatedSimplicialSet) -> ProductAction | None:
    """The action of ``A x B``: the factors' product, if either has an action."""
    if A._action is None and B._action is None:
        return None
    return ProductAction(A, B)


def product(A: TruncatedSimplicialSet, B: TruncatedSimplicialSet) -> TruncatedSimplicialSet:
    """The product simplicial set: (A x B)_n = A_n x B_n, d_i = (d_i, d_i).

    This is ``diagonal(tensor(A, B))`` built without the rest of the grid:
    the same ids (row-major, B minor), tables and labels, to the smaller of
    the two bounds.  If a factor carries a group action, the product carries
    the product action (:class:`ProductAction`), which holds the factors
    and builds no columns of its own.
    """
    bound = min(A.bound, B.bound)
    counts = [A.counts[n] * B.counts[n] for n in range(bound + 1)]
    faces = [[]] + [
        [_pairs(A._faces[n][i], B._faces[n][i], B.counts[n - 1]) for i in range(n + 1)]
        for n in range(1, bound + 1)
    ]
    degens = [
        [_pairs(A._degens[n][i], B._degens[n][i], B.counts[n + 1]) for i in range(n + 1)]
        for n in range(bound)
    ] + [[]]
    labels = [partial(_pair_label, A, n, B, n, B.counts[n]) for n in range(bound + 1)]
    X = TruncatedSimplicialSet(counts, faces, degens, labels)
    X._action = _product_action(A, B)
    return X


@dataclass(frozen=True)
class CommutationViolation:
    first: str
    second: str
    p: int
    q: int
    i: int
    j: int
    simplex: int


@dataclass(frozen=True)
class BisimplicialReport:
    row_reports: tuple
    column_reports: tuple
    commutation: tuple[CommutationViolation, ...]

    @property
    def ok(self) -> bool:
        return (
            all(r.ok for r in self.row_reports)
            and all(c.ok for c in self.column_reports)
            and not self.commutation
        )


# each kind of operator: its name, the step it takes its index by, and its
# tables in a line
_KINDS = (("face", -1, attrgetter("_faces")), ("degen", 1, attrgetter("_degens")))


def validate_bisimplicial_identities(X: TruncatedBisimplicialSet) -> BisimplicialReport:
    """Check every row and column simplicially, and all mixed commutations.

    A horizontal operator i and a vertical operator j commute at (p, q) when
    the columns ``v_j h_i`` and ``h_i v_j`` over the level agree, each one
    gather of a table at the entries of another.  Violations come by level,
    then kind of commutation, then simplex id, then (i, j).
    """
    P, Q = X.bounds
    rows, cols = X.rows, X.columns
    bad: list[CommutationViolation] = []
    for p in range(P + 1):
        for q in range(Q + 1):
            for a, dp, h_tables in _KINDS:
                for b, dq, v_tables in _KINDS:
                    p2, q2 = p + dp, q + dq
                    if not (0 <= p2 <= P and 0 <= q2 <= Q):
                        continue
                    h, h2 = h_tables(rows[q])[p], h_tables(rows[q2])[p]
                    v, v2 = v_tables(cols[p])[q], v_tables(cols[p2])[q]
                    block = [
                        CommutationViolation(f"h-{a}", f"v-{b}", p, q, i, j, idx)
                        for i in range(p + 1)
                        for j in range(q + 1)
                        for idx in _mismatches(gather(v2[j], h[i]), gather(h2[i], v[j]))
                    ]
                    block.sort(key=attrgetter("simplex"))  # stable: keeps (i, j) order
                    bad += block
    return BisimplicialReport(
        tuple(map(validate_simplicial_identities, rows)),
        tuple(map(validate_simplicial_identities, cols)),
        tuple(bad),
    )


class BisimplicialMap:
    """A levelwise map, held as one simplicial map per row and per column.

    The row maps commute with the horizontal tables and the column maps with
    the vertical ones, which together is naturality for all four families.
    ``validate`` is passed to each; the maps built here pass False, for the
    measured reason given at :class:`SimplicialMap`.
    """

    __slots__ = ("domain", "codomain", "row_maps", "column_maps")

    def __init__(
        self,
        domain: TruncatedBisimplicialSet,
        codomain: TruncatedBisimplicialSet,
        components,
        validate: bool = True,
    ) -> None:
        if domain.bounds != codomain.bounds:
            raise RejectedInput("domain and codomain must share the same bounds")
        self.domain = domain
        self.codomain = codomain
        P, Q = domain.bounds
        if len(components) != P + 1 or any(len(c) != Q + 1 for c in components):
            raise RejectedInput("components must form a full (P+1) x (Q+1) grid")
        self.row_maps = tuple(
            _in_line(
                f"row {q}", SimplicialMap, domain.rows[q], codomain.rows[q],
                [components[p][q] for p in range(P + 1)], validate,
            )
            for q in range(Q + 1)
        )
        self.column_maps = tuple(
            _in_line(
                f"column {p}", SimplicialMap, domain.columns[p], codomain.columns[p],
                components[p], validate,
            )
            for p in range(P + 1)
        )

    @property
    def components(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """``components[p][q]``: the table of the map at level (p, q)."""
        return tuple(m.components for m in self.column_maps)

    def __repr__(self) -> str:
        return f"BisimplicialMap(bounds={self.domain.bounds})"


def to_point_bimap(X: TruncatedBisimplicialSet) -> BisimplicialMap:
    P, Q = X.bounds
    pt = point_bisimplicial(P, Q)
    comps = [[[0] * X.counts[p][q] for q in range(Q + 1)] for p in range(P + 1)]
    return BisimplicialMap(X, pt, comps, validate=False)


def diagonal_map(f: BisimplicialMap) -> SimplicialMap:
    """Restrict a bisimplicial map to the diagonals of both sides."""
    dom = diagonal(f.domain)
    cod = diagonal(f.codomain)
    comps = [f.column_maps[n].components[n] for n in range(dom.bound + 1)]
    return SimplicialMap(dom, cod, comps, validate=False)


def column_map(f: BisimplicialMap, p: int) -> SimplicialMap:
    """The column component of a bisimplicial map at horizontal level p."""
    return _line(f.column_maps, p, "column", f.domain.bounds)


def row_map(f: BisimplicialMap, q: int) -> SimplicialMap:
    """The row component of a bisimplicial map at vertical level q."""
    return _line(f.row_maps, q, "row", f.domain.bounds)


def transpose_map(f: BisimplicialMap) -> BisimplicialMap:
    """The map of the transposes.  Its row maps are f's column maps and its
    column maps f's row maps, the same objects, so a search map one of them
    builds is kept with f."""
    t = BisimplicialMap.__new__(BisimplicialMap)
    t.domain, t.codomain = transpose(f.domain), transpose(f.codomain)
    t.row_maps, t.column_maps = f.column_maps, f.row_maps
    return t
