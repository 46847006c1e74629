"""Truncated bisimplicial sets: commuting horizontal and vertical structures.

The first index p is horizontal, the second q vertical.  A bisimplicial set
is stored as its rows and its columns: row q is the simplicial set
p -> X_{p,q} carrying the horizontal tables, column p the simplicial set
q -> X_{p,q} carrying the vertical tables.  Rows and columns share the
bisimplex ids of each level, so every table lives in exactly one validated
simplicial set, and rows, columns and the transpose are read off without
copying.  A ``tensor`` builds no grid: it records its factors, bounds and
counts, and builds each row and each column from the factors' tables only
when it is first read, checks it against the tensor's counts and labels, and
keeps it.  The diagonal composes one row table with one column table, and
the diagonal of a ``tensor`` is the ``product`` of its factors, which
records them, so it reads no line; both grow a level at a time
(``extend_diagonal``, ``extend_product``), and ``product`` is
``product_stages`` run to the bound.
The laws are checked on the tables too: rows and columns by the simplicial
identities, and each horizontal/vertical commutation at a level as one
comparison of gathered columns.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import attrgetter
from typing import Callable, TypeVar

from .errors import RejectedInput, TruncationError
from .simplicial import (
    Label,
    Simplex,
    SimplicialMap,
    Stages,
    TruncatedSimplicialSet,
    _mismatches,
    _pairs,
    gather,
    point,
    require_level,
    validate_simplicial_identities,
)

T = TypeVar("T")


def _in_line(what: str, build: Callable[..., T], *args) -> T:
    """Build one row or column object, naming the line in any rejection."""
    try:
        return build(*args)
    except RejectedInput as exc:
        raise RejectedInput(f"{what}: {exc}") from None


def _label_of(line: TruncatedSimplicialSet, k: int) -> Label | None:
    """The label function of level k of a line, or None for an unlabelled one."""
    return None if line._labels is None else line._labels[k]


def _same_labels(f: Label | None, g: Label | None, count: int) -> bool:
    """Whether two label functions of a level of ``count`` simplices (None:
    unlabelled) label alike: the same function, or functions that render the
    same strings."""
    if f is g:
        return True
    if f is None or g is None:
        return False
    return list(map(f, range(count))) == list(map(g, range(count)))


def _disagreement(
    line: TruncatedSimplicialSet, counts: Sequence[int], labels: Sequence[Label | None]
) -> int | None:
    """The first level k of a line whose count is not ``counts[k]`` or whose
    labels are not those of ``labels[k]``, or None when every level agrees."""
    for k, (count, label) in enumerate(zip(counts, labels)):
        if line.counts[k] != count or not _same_labels(_label_of(line, k), label, count):
            return k
    return None


def _line(lines: Sequence[T], k: int, what: str, bounds: tuple[int, int]) -> T:
    if not 0 <= k < len(lines):
        raise RejectedInput(f"{what} index {k} outside bounds {bounds}")
    return lines[k]


class _Lines(Sequence):
    """The rows, or the columns, of a tensor, read as the tuple of its lines
    (by index, slice, length and iteration): line k is ``build(k)``, built on
    its first read and kept."""

    __slots__ = ("_build", "_built")

    def __init__(self, count: int, build: Callable[[int], TruncatedSimplicialSet]) -> None:
        self._build = build
        self._built: list[TruncatedSimplicialSet | None] = [None] * count

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, k):
        at = range(len(self._built))[k]
        if isinstance(at, range):
            return tuple(map(self.__getitem__, at))
        if self._built[at] is None:
            self._built[at] = self._build(at)
        return self._built[at]


class TruncatedBisimplicialSet:
    """Doubly indexed simplex tables, given as rows and columns.

    ``rows[q]`` carries the horizontal tables of p -> X_{p,q} and
    ``columns[p]`` the vertical tables of q -> X_{p,q}; every row and column
    must agree on the count and labels of the level they share.  ``_factors``
    is ``(A, B)`` for ``tensor(A, B)``, else None; equality does not read it.
    The lines of a tensor are built on first read (:func:`tensor`).
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
        for q, r in enumerate(rows):
            p = _disagreement(
                r, [col.counts[q] for col in columns], [_label_of(col, q) for col in columns]
            )
            if p is not None:
                raise RejectedInput(f"row {q} and column {p} disagree on level ({p},{q})")
        self.bounds = (P, Q)
        self.counts = tuple(col.counts for col in columns)
        self.rows: Sequence[TruncatedSimplicialSet] = rows
        self.columns: Sequence[TruncatedSimplicialSet] = columns
        self._factors: tuple[TruncatedSimplicialSet, TruncatedSimplicialSet] | None = None

    @classmethod
    def _of_lines(
        cls, counts: tuple[tuple[int, ...], ...], rows: Sequence[TruncatedSimplicialSet],
        columns: Sequence[TruncatedSimplicialSet], factors: tuple | None = None,
    ) -> "TruncatedBisimplicialSet":
        """The set of these counts and lines, with no agreement check: for
        lines that agree by construction (:func:`transpose`) or are checked
        as they are built (:func:`tensor`)."""
        X = cls.__new__(cls)
        X.bounds = (len(counts) - 1, len(counts[0]) - 1)
        X.counts, X.rows, X.columns, X._factors = counts, rows, columns, factors
        return X

    def size(self, p: int, q: int) -> int:
        if not (0 <= p <= self.bounds[0] and 0 <= q <= self.bounds[1]):
            raise TruncationError(f"level ({p},{q}) outside bounds {self.bounds}")
        return self.counts[p][q]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedBisimplicialSet):
            return NotImplemented
        return (
            tuple(self.rows) == tuple(other.rows)
            and tuple(self.columns) == tuple(other.columns)
        )

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
    and bisimplices can be converted back and forth by reindexing alone.
    Level 0 is grown a level at a time by :func:`extend_diagonal`.  The
    diagonal of ``tensor(A, B)`` is ``product(A, B)``, the same ids, tables
    and labels, built from the factors alone.
    """
    if X._factors is not None:
        return product(*X._factors)
    rows = X.rows
    D = TruncatedSimplicialSet(
        [X.counts[0][0]], [[]], [[]], None if rows[0]._labels is None else [rows[0]._labels[0]]
    )
    for _ in range(min(X.bounds)):
        D = extend_diagonal(D, X)
    return D


def extend_diagonal(
    D: TruncatedSimplicialSet, X: TruncatedBisimplicialSet
) -> TruncatedSimplicialSet:
    """D, the diagonal of X up to level n - 1, with level n added (X must
    reach (n, n)).  Each table is one gather, the row table read at the
    entries of the column table: ``d_i`` of level n is row n-1's ``d_i`` at
    column n's, and ``s_i`` into level n is row n's ``s_i`` at column n-1's."""
    n, rows, cols = D.bound + 1, X.rows, X.columns
    return D.extended(
        X.counts[n][n],
        [gather(rows[n - 1]._faces[n][i], cols[n]._faces[n][i]) for i in range(n + 1)],
        [gather(rows[n]._degens[n - 1][i], cols[n - 1]._degens[n - 1][i]) for i in range(n)],
        None if D._labels is None else rows[n]._labels[n],
    )


def transpose(X: TruncatedBisimplicialSet) -> TruncatedBisimplicialSet:
    """Swap the two gradings: the rows become the columns and vice versa,
    the same sequences, so the transpose of a tensor builds no line."""
    return TruncatedBisimplicialSet._of_lines(tuple(zip(*X.counts)), X.columns, X.rows)


def _pair_label(
    A: TruncatedSimplicialSet, p: int, B: TruncatedSimplicialSet, q: int, width: int, idx: int
) -> str:
    a, b = divmod(idx, width)
    return f"({A.label(Simplex(p, a))},{B.label(Simplex(q, b))})"


def _checked_line(
    line: TruncatedSimplicialSet, counts: Sequence[int], labels: Sequence[Label], what: str
) -> TruncatedSimplicialSet:
    """A built line of a tensor, refused unless each level k has the
    tensor's count ``counts[k]`` and labels ``labels[k]``: so every row and
    column agrees with every other on the level they share."""
    k = _disagreement(line, counts, labels)
    if k is not None:
        raise RejectedInput(f"{what} disagrees with the tensor on its level {k}")
    return line


def tensor(A: TruncatedSimplicialSet, B: TruncatedSimplicialSet) -> TruncatedBisimplicialSet:
    """The external product: (A (x) B)_{p,q} = A_p x B_q.

    Ids are packed row-major with the B factor minor.  Row q is A acting on
    the first coordinate of A_p x B_q, column p is B acting on the second, so
    the required commutation holds by construction.  No grid is built: the
    result records its factors, for :func:`diagonal`, and its counts, and
    each row and each column is built from the factors' tables on its first
    read, validated, checked against the counts and labels, and kept.  The
    counts are recorded unchecked: a line is held to the size budget
    (:func:`kancheck.simplicial.require_level`) level by level when it is
    built, so row q refuses its level p, column p its level q.
    """
    P, Q = A.bound, B.bound
    counts = tuple(tuple(A.counts[p] * B.counts[q] for q in range(Q + 1)) for p in range(P + 1))
    labels = [
        [partial(_pair_label, A, p, B, q, B.counts[q]) for q in range(Q + 1)]
        for p in range(P + 1)
    ]

    def on_first(table: Sequence[int], width: int) -> list[int]:
        return _pairs(table, range(width), width)

    def on_second(table: Sequence[int], height: int, width: int) -> list[int]:
        return _pairs(range(height), table, width)

    def build_row(q: int) -> TruncatedSimplicialSet:
        width = B.counts[q]
        sizes = [require_level(f"row {q} level {p}", p, counts[p][q]) for p in range(P + 1)]
        line = TruncatedSimplicialSet(
            sizes,
            [[on_first(t, width) for t in A._faces[p]] for p in range(P + 1)],
            [[on_first(t, width) for t in A._degens[p]] for p in range(P + 1)],
            [labels[p][q] for p in range(P + 1)],
        )
        return _checked_line(
            line, [c[q] for c in counts], [level[q] for level in labels], f"row {q}"
        )

    def build_column(p: int) -> TruncatedSimplicialSet:
        height = A.counts[p]
        sizes = [require_level(f"column {p} level {q}", q, c) for q, c in enumerate(counts[p])]
        line = TruncatedSimplicialSet(
            sizes,
            [[]] + [
                [on_second(t, height, B.counts[q - 1]) for t in B._faces[q]]
                for q in range(1, Q + 1)
            ],
            [
                [on_second(t, height, B.counts[q + 1]) for t in B._degens[q]]
                for q in range(Q)
            ] + [[]],
            labels[p],
        )
        return _checked_line(line, counts[p], labels[p], f"column {p}")

    return TruncatedBisimplicialSet._of_lines(
        counts, _Lines(Q + 1, build_row), _Lines(P + 1, build_column), (A, B)
    )


def _product_count(A: TruncatedSimplicialSet, B: TruncatedSimplicialSet, n: int) -> int:
    return require_level(f"product level {n}", n, A.counts[n] * B.counts[n])


def _shared_pairs(ta: Sequence[int], tb: Sequence[int], width: int) -> list[int]:
    """``_pairs(ta, tb, width)`` from one row of pair ids per distinct entry
    of ``ta``, shared by every entry equal to it: the table holds
    ``len(set(ta)) * len(tb)`` int objects, not ``len(ta) * len(tb)``.  It is
    slower than ``_pairs`` on tables of a few hundred entries, faster on
    large ones."""
    rows = {a: [a * width + b for b in tb] for a in set(ta)}
    return list(chain.from_iterable(map(rows.__getitem__, ta)))


def extend_product(
    X: TruncatedSimplicialSet, A: TruncatedSimplicialSet, B: TruncatedSimplicialSet
) -> TruncatedSimplicialSet:
    """X, the product A x B up to level n - 1, with level n added (A and B
    must reach n), each table the pairs of the factors'.  A level past the
    size budget is refused before it is allocated."""
    n = X.bound + 1
    return X.extended(
        _product_count(A, B, n),
        [_shared_pairs(A._faces[n][i], B._faces[n][i], B.counts[n - 1]) for i in range(n + 1)],
        [_shared_pairs(A._degens[n - 1][i], B._degens[n - 1][i], B.counts[n]) for i in range(n)],
        partial(_pair_label, A, n, B, n, B.counts[n]),
    )


def product_stages(A: TruncatedSimplicialSet, B: TruncatedSimplicialSet) -> Stages:
    """``A x B`` to the smaller of the two bounds as :class:`Stages` grown by
    :func:`extend_product`, which record the factors: a check over a point
    builds it only as far as it searches it (see
    :func:`kancheck.kan.check_kan_to_point`)."""
    label = partial(_pair_label, A, 0, B, 0, B.counts[0])
    first = TruncatedSimplicialSet([_product_count(A, B, 0)], [[]], [[]], [label])
    return Stages(first, lambda X: extend_product(X, A, B), min(A.bound, B.bound), (A, B))


def product(A: TruncatedSimplicialSet, B: TruncatedSimplicialSet) -> TruncatedSimplicialSet:
    """The product simplicial set: (A x B)_n = A_n x B_n, d_i = (d_i, d_i).

    This is ``diagonal(tensor(A, B))`` built without the rest of the grid:
    the same ids (row-major, B minor), tables and labels, to the smaller of
    the two bounds.  The product records its factors (``_factors``), from
    which a check over a point decides it (see
    :func:`kancheck.kan.check_kan_to_point`).  A level past the size budget
    (:func:`kancheck.simplicial.require_level`) is refused with
    ``RejectedInput`` before anything is built; then :func:`product_stages`
    is run to the bound.
    """
    stages = product_stages(A, B)
    for n in range(stages.bound + 1):
        _product_count(A, B, n)
    X = stages.stage(stages.bound)
    X._factors = (A, B)
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
    """The map of X to the point.  Level (p, q) is row q's level p and
    column p's level q, so it is held to the size budget as the larger of
    the two, before any component exists: a tensor whose lines would be
    refused is refused here first."""
    sizes = [[require_level(f"level ({p}, {q})", max(p, q), c) for q, c in enumerate(counts)]
             for p, counts in enumerate(X.counts)]
    pt = point_bisimplicial(*X.bounds)
    comps = [[(0,) * count for count in counts] for counts in sizes]
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
