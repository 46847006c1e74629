"""Double groupoids, the one-object subgroup-pair example, and double nerves.

Squares are drawn with horizontal arrows pointing left and vertical arrows
pointing up: ``top: b -> c`` across the top, ``right: a -> b`` up the right,
``bottom: a -> d`` across the bottom and ``left: d -> c`` up the left.
Horizontal composition glues a left square's right edge to a right square's
left edge; vertical composition glues an upper square's bottom edge to a
lower square's top edge.

The double nerve is built from nerves on id layouts
(:class:`~kancheck.groupoids.NerveLayout`), where a string's id is
``start[parent] + pos[last]``: its parent's block start plus its last arrow's
rank among the arrows with that arrow's target.  Column 1 is laid out as the
nerve of the vertical square groupoid, and row q as the nerve of the
groupoid of q-columns, whose arrows are column 1's q-simplex ids.  That
groupoid's endpoints, identities and composites, and the tables of the
columns p >= 2, are gathered square position by square position and column
by column on these layouts; no key tuple is built unless keys or a label are
asked for.

A layout's ids at a level do not depend on its bound, so the double nerve is
grown one bound at a time, stage n being ``double_nerve(D, min(n, P),
min(n, Q))``, each line by its next level, and each table is built and
validated once.  ``double_nerve`` lays out every level first, so a level
past the size budget is refused before any table is built, then grows to
(P, Q).  :func:`diagonal_stages` grows the diagonal with it, a level at a
time: a to-point check of a double-nerve diagonal builds level n only when
its first cell at n starts, and a size refusal fires only at a level the
check reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Sequence

from .bisimplicial import TruncatedBisimplicialSet, diagonal, extend_diagonal
from .errors import RejectedInput
from .groups import FiniteGroup, _by_value, _first_nonassociative
from .groupoids import (
    FiniteGroupoid,
    NerveLayout,
    extend_groupoid_nerve,
    extend_nerve,
    nerve_and_layout,
    one_object_groupoid,
    string_label,
)
from .simplicial import Label, Stages, TruncatedSimplicialSet, gather


@dataclass(frozen=True)
class Square:
    top: int
    right: int
    bottom: int
    left: int


class DoubleGroupoid:
    """Objects, two arrow groupoids, and squares with two compositions.

    Construction validates the full axiom set: boundary consistency, closure
    of both compositions, identity and inverse laws, associativity, the
    interchange law, and agreement of the two identity squares on identity
    arrows.  Violations are rejected with a witness in the message.

    The squares are bucketed by their left and by their top edges, so every
    check visits only composable pairs: the composites of a square are taken
    with the squares whose left edge is its right edge and whose top edge is
    its bottom edge, an inverse is searched among those, and the interchange
    law runs over the 2x2 grids, the pairs under a composable pair found by
    their top edges.  Each visits its pairs in the order of a loop over all
    of them, so the first violation named is the same.  Associativity of each
    composition is decided by Light's test
    (:func:`kancheck.groups._first_nonassociative`), on the middle squares of
    a generating set, and scanned in full only on a failure.
    """

    __slots__ = ("horizontal", "vertical", "squares", "_square_index",
                 "_h_comp", "_v_comp", "h_identity", "v_identity",
                 "h_composites", "v_composites", "_edges", "_by_left", "_by_top")

    def __init__(
        self,
        horizontal: FiniteGroupoid,
        vertical: FiniteGroupoid,
        squares: Sequence[Square],
    ) -> None:
        if horizontal.objects != vertical.objects:
            raise RejectedInput("horizontal and vertical groupoids must share objects")
        self.horizontal = horizontal
        self.vertical = vertical
        self.squares = tuple(squares)
        # a square is its boundary, so the index is keyed by the edge tuple
        boundaries = [(sq.top, sq.right, sq.bottom, sq.left) for sq in self.squares]
        self._square_index = {key: k for k, key in enumerate(boundaries)}
        self._edges = tuple(zip(*boundaries))
        if len(self._square_index) != len(self.squares):
            raise RejectedInput("duplicate squares")
        h, v = horizontal, vertical
        for sq in self.squares:
            if h.arrow_source[sq.top] != v.arrow_target[sq.right]:
                raise RejectedInput(f"{sq}: top and right edges miss each other")
            if h.arrow_target[sq.top] != v.arrow_target[sq.left]:
                raise RejectedInput(f"{sq}: top and left edges miss each other")
            if h.arrow_source[sq.bottom] != v.arrow_source[sq.right]:
                raise RejectedInput(f"{sq}: bottom and right edges miss each other")
            if h.arrow_target[sq.bottom] != v.arrow_source[sq.left]:
                raise RejectedInput(f"{sq}: bottom and left edges miss each other")

        self.v_identity = tuple(
            self._locate((a, v.identity(h.arrow_source[a]), a, v.identity(h.arrow_target[a])),
                         "vertical identity square of horizontal arrow {}", a)
            for a in range(h.n_arrows)
        )
        self.h_identity = tuple(
            self._locate((h.identity(v.arrow_target[b]), b, h.identity(v.arrow_source[b]), b),
                         "horizontal identity square of vertical arrow {}", b)
            for b in range(v.n_arrows)
        )

        # the squares to the right of s are those whose left edge is s's
        # right edge, and the squares below s those whose top edge is s's
        # bottom edge
        tops, _, _, lefts = self._edges
        self._by_left = _by_value(lefts)
        self._by_top = _by_value(tops)
        self._h_comp: dict[tuple[int, int], int] = {}
        self._v_comp: dict[tuple[int, int], int] = {}
        for s_id, s in enumerate(self.squares):
            self._compose_with(s_id, s)
        # both dicts hold the composable pairs (s, t), s ascending and then t
        # ascending: the order of level 2 in the nerves of the square groupoids
        self.h_composites = tuple(self._h_comp.values())
        self.v_composites = tuple(self._v_comp.values())
        self._validate_groupoid_laws()
        self._validate_interchange()
        for obj in range(len(h.objects)):
            if self.h_identity[v.identity(obj)] != self.v_identity[h.identity(obj)]:
                raise RejectedInput(
                    f"identity squares disagree on the identity arrows at object {obj}"
                )

    def _locate(self, edges: tuple[int, int, int, int], what: str, *args: object) -> int:
        """The id of the square with ``edges`` (top, right, bottom, left);
        only a miss formats ``what`` with ``args``."""
        try:
            return self._square_index[edges]
        except KeyError:
            raise RejectedInput(f"{what.format(*args)} is missing from the square set") from None

    def _compose_with(self, s_id: int, s: Square) -> None:
        """Record the composites of s with each square to its right and each
        square below it.  A missing composite is named as a loop over t, the
        horizontal composite of (s, t) before the vertical one, meets it."""
        h, v, index = self.horizontal, self.vertical, self._square_index
        tops, rights, bottoms, lefts = self._edges
        right, below = self._by_left.get(s.right, []), self._by_top.get(s.bottom, [])
        across = list(zip(
            map(h.compose, repeat(s.top), gather(tops, right)), gather(rights, right),
            map(h.compose, repeat(s.bottom), gather(bottoms, right)), repeat(s.left),
        ))
        down = list(zip(
            repeat(s.top), map(v.compose, repeat(s.right), gather(rights, below)),
            gather(bottoms, below), map(v.compose, repeat(s.left), gather(lefts, below)),
        ))
        across_ids, down_ids = list(map(index.get, across)), list(map(index.get, down))
        if None in across_ids or None in down_ids:
            t, vertical, edges = min(
                [(t, 0, e) for t, e, k in zip(right, across, across_ids) if k is None]
                + [(t, 1, e) for t, e, k in zip(below, down, down_ids) if k is None]
            )
            self._locate(edges, ("vertical" if vertical else "horizontal")
                         + " composite of {} and {}", s, self.squares[t])
        self._h_comp.update(zip(zip(repeat(s_id), right), across_ids))
        self._v_comp.update(zip(zip(repeat(s_id), below), down_ids))

    def _validate_groupoid_laws(self) -> None:
        sq, h_comp, v_comp = self.squares, self._h_comp, self._v_comp
        for s_id, s in enumerate(sq):
            if self.h_compose(s_id, self.h_identity[s.right]) != s_id:
                raise RejectedInput(f"horizontal right identity law fails at {s}")
            if self.h_compose(self.h_identity[s.left], s_id) != s_id:
                raise RejectedInput(f"horizontal left identity law fails at {s}")
            if self.v_compose(s_id, self.v_identity[s.bottom]) != s_id:
                raise RejectedInput(f"vertical lower identity law fails at {s}")
            if self.v_compose(self.v_identity[s.top], s_id) != s_id:
                raise RejectedInput(f"vertical upper identity law fails at {s}")
            if not any(
                h_comp[(s_id, t)] == self.h_identity[s.left]
                and h_comp[(t, s_id)] == self.h_identity[s.right]
                for t in self._by_left.get(s.right, ()) if sq[t].right == s.left
            ):
                raise RejectedInput(f"{s} has no horizontal inverse")
            if not any(
                v_comp[(s_id, t)] == self.v_identity[s.top]
                and v_comp[(t, s_id)] == self.v_identity[s.bottom]
                for t in self._by_top.get(s.bottom, ()) if sq[t].bottom == s.top
            ):
                raise RejectedInput(f"{s} has no vertical inverse")
        # horizontally a square runs from its right edge to its left edge,
        # vertically from its bottom edge to its top edge
        tops, rights, bottoms, lefts = self._edges
        for name, comp, compose, after, source, target, identities in (
            ("horizontal", h_comp, self.h_compose, self._by_left, rights, lefts, self.h_identity),
            ("vertical", v_comp, self.v_compose, self._by_top, bottoms, tops, self.v_identity),
        ):
            rows = [list(map(comp.__getitem__, zip(repeat(a), after.get(source[a], ()))))
                    for a in range(len(sq))]
            triple = _first_nonassociative(rows, compose, source, target, identities)
            if triple is not None:
                a, b, c = triple
                raise RejectedInput(f"{name} associativity fails at ({a},{b},{c})")

    def _validate_interchange(self) -> None:
        """``(s | t) / (g | d) == (s / g) | (t / d)`` on every 2x2 grid of
        squares, ``|`` composing horizontally and ``/`` vertically.  The
        grids of a composable pair (s, t) are the composable pairs (g, d)
        whose top edges are the bottom edges of s and t; each pair's grids are
        compared as whole columns, and only a pair with a mismatch is walked
        grid by grid for the message."""
        sq, h_comp, v_comp = self.squares, self._h_comp, self._v_comp
        under: dict[tuple[int, int], tuple[list[int], list[int], list[int]]] = {}
        for (g, d), gd in h_comp.items():
            gs, ds, gds = under.setdefault((sq[g].top, sq[d].top), ([], [], []))
            gs.append(g)
            ds.append(d)
            gds.append(gd)
        v_get, h_get = v_comp.get, h_comp.get
        for (s, t), st in h_comp.items():
            gs, ds, gds = under.get((sq[s].bottom, sq[t].bottom), ([], [], []))
            lhs = list(map(v_get, zip(repeat(st), gds)))
            below = zip(map(v_get, zip(repeat(s), gs)), map(v_get, zip(repeat(t), ds)))
            if lhs == list(map(h_get, below)) and None not in lhs:
                continue
            for g, d, gd in zip(gs, ds, gds):
                lhs_sq = self.v_compose(st, gd)
                rhs_sq = self.h_compose(v_comp[(s, g)], v_comp[(t, d)])
                if lhs_sq != rhs_sq:
                    raise RejectedInput(
                        f"interchange law fails at squares ({s},{t},{g},{d})"
                    )

    @property
    def n_squares(self) -> int:
        return len(self.squares)

    def square_id(self, sq: Square) -> int:
        return self._locate((sq.top, sq.right, sq.bottom, sq.left), "square {}", sq)

    def has_square(self, sq: Square) -> bool:
        return (sq.top, sq.right, sq.bottom, sq.left) in self._square_index

    def h_compose(self, s: int, t: int) -> int:
        """s to the left of t; requires s.right == t.left."""
        try:
            return self._h_comp[(s, t)]
        except KeyError:
            raise RejectedInput(f"squares {s} and {t} are not horizontally composable") from None

    def v_compose(self, s: int, t: int) -> int:
        """s above t; requires s.bottom == t.top."""
        try:
            return self._v_comp[(s, t)]
        except KeyError:
            raise RejectedInput(f"squares {s} and {t} are not vertically composable") from None

    def square_label(self, s: int) -> str:
        sq = self.squares[s]
        return (
            f"[{self.horizontal.arrow_labels[sq.top]},{self.vertical.arrow_labels[sq.right]},"
            f"{self.horizontal.arrow_labels[sq.bottom]},{self.vertical.arrow_labels[sq.left]}]"
        )

    def __repr__(self) -> str:
        return (
            f"DoubleGroupoid(objects={len(self.horizontal.objects)}, "
            f"h_arrows={self.horizontal.n_arrows}, v_arrows={self.vertical.n_arrows}, "
            f"squares={self.n_squares})"
        )


def trivial_double_groupoid() -> DoubleGroupoid:
    h = one_object_groupoid(FiniteGroup(["e"], [[0]]))
    v = one_object_groupoid(FiniteGroup(["e"], [[0]]))
    return DoubleGroupoid(h, v, [Square(0, 0, 0, 0)])


def group_pair_double_groupoid(
    G: FiniteGroup, A: Sequence[int], B: Sequence[int]
) -> DoubleGroupoid:
    """The one-object double groupoid with horizontal arrows A, vertical
    arrows B, and squares the quadruples (a, b, a', b') with a*b == b'*a'.

    Compositions multiply the glued edges in the group; identity squares are
    (a, e, a, e) and (e, b, e, b).
    """
    from .groups import subgroup_group

    GA = subgroup_group(G, A)
    GB = subgroup_group(G, B)
    A = tuple(sorted(set(A)))
    B = tuple(sorted(set(B)))
    h = one_object_groupoid(GA)
    v = one_object_groupoid(GB)
    # a*b == b'*a' leaves one candidate b' = a*b*a'^-1 for each (a, b, a')
    rank_b = {b: k for k, b in enumerate(B)}
    squares = []
    for ta, a in enumerate(A):
        for rb, b in enumerate(B):
            ab = G.mul(a, b)
            for ba, a2 in enumerate(A):
                lb = rank_b.get(G.mul(ab, G.inv(a2)))
                if lb is not None:
                    squares.append(Square(ta, rb, ba, lb))
    return DoubleGroupoid(h, v, squares)


def _matrix_label(column_label: Label, R: NerveLayout, p: int, idx: int) -> str:
    return ";".join(map(column_label, R.key(p, idx)))


class _DoubleNerveBuild:
    """The double nerve of D up to bounds (P, Q), grown one stage at a time.

    Stage n is ``double_nerve(D, min(n, P), min(n, Q))``: :meth:`advance` takes
    stage n - 1 to stage n, and :meth:`nerve` is the current stage.  A
    layout's ids at a level do not depend on its bound, so every layout and
    line grows by its next level, gathered from the levels below, and each
    table is built and validated once (:meth:`TruncatedSimplicialSet.extended`).

    Column 1 is the nerve of the vertical square groupoid (objects the
    horizontal arrows, arrows the squares from bottom to top), so its
    q-simplices are q-columns of squares, top first.  Row q >= 1 is the nerve
    of the groupoid of q-columns (objects the vertical q-strings, arrows the
    q-columns from right edge to left edge), so its p-simplices are p-tuples
    of column ids.  That groupoid's endpoints, identities and composites are
    gathered on the layouts of column 0, column 1 and row q-1, one square
    position at a time.  Column p >= 2 applies the tables of column 1 to each
    column of a p-tuple.  Row 0 and column 0 are the nerves of the horizontal
    and vertical groupoids.

    :meth:`lay_out` grows the layouts alone, which allocates no table; a
    level past the size budget is refused by the first layout that reaches it.
    """

    def __init__(self, D: DoubleGroupoid, P: int, Q: int) -> None:
        if P < 0 or Q < 0:
            raise RejectedInput("bounds must be nonnegative")
        h, v, sq = D.horizontal, D.vertical, D.squares
        self.D, self.P, self.Q, self.n = D, P, Q, 0
        row0, self.H = nerve_and_layout(h, 0)
        col0, self.V = nerve_and_layout(v, 0)
        self.rows, self.columns = [row0], [col0]
        # column 1's layout, and each row q's (layouts[0] is row 0's, H)
        self.C1 = None
        if P:
            self.C1 = NerveLayout(h.n_arrows, [s.bottom for s in sq], [s.top for s in sq], 0)
        self.layouts = [self.H]
        self._square_labels = tuple(map(D.square_label, range(D.n_squares))) if P else ()
        # the label of level q of column 1, and of level 1 of row q
        self._column_labels: list[Label] = []

    def lay_out(self, n: int) -> None:
        """Grow every layout to the bounds of stage n, row q's created at
        stage q: H, V, column 1's, then row 1's, row 2's, ..., each in full."""
        P, Q = min(n, self.P), min(n, self.Q)
        _reach(self.H, P)
        _reach(self.V, Q)
        if self.C1 is None:
            return
        _reach(self.C1, Q)
        for q in range(1, Q + 1):
            if q == len(self.layouts):
                self.layouts.append(self._row_layout(q))
            _reach(self.layouts[q], P)

    def _row_layout(self, q: int) -> NerveLayout:
        """Row q's layout at bound 0: a q-column runs from its right edge to
        its left edge, read off row q-1's and the last square's."""
        V, C1, sq = self.V, self.C1, self.D.squares
        source, target = [s.right for s in sq], [s.left for s in sq]
        if q > 1:
            parent, last, R = C1.parent[q], C1.last[q], self.layouts[q - 1]
            source = V.encode(q, R.source, parent, source, last)
            target = V.encode(q, R.target, parent, target, last)
        return NerveLayout(V.counts[q], source, target, 0)

    def advance(self) -> None:
        """Stage n - 1 to stage n: row 0, column 0 and column 1, then each
        row, then each column p >= 2, every line by its levels of stage n."""
        n = self.n + 1
        self.lay_out(n)
        D, rows, columns = self.D, self.rows, self.columns
        P, Q = min(n, self.P), min(n, self.Q)
        if P == n:
            rows[0] = extend_groupoid_nerve(rows[0], self.H, D.horizontal)
        if Q == n:
            columns[0] = extend_groupoid_nerve(columns[0], self.V, D.vertical)
        if self.C1 is not None:
            if n == 1:
                self._column_labels.append(rows[0]._labels[1])
                columns.append(_level_zero(self.C1.counts[0], self._column_labels[0]))
            while columns[1].bound < Q:
                q = columns[1].bound + 1
                self._column_labels.append(partial(string_label, self._square_labels, self.C1, q))
                columns[1] = extend_nerve(
                    columns[1], self.C1, D.v_identity, D.v_composites, self._column_labels[q]
                )
        for q in range(1, Q + 1):
            if q == len(rows):
                rows.append(_level_zero(columns[0].counts[q], columns[0]._labels[q]))
            while rows[q].bound < P:
                self._extend_row(q)
        for p in range(2, P + 1):
            if p == len(columns):
                columns.append(_level_zero(self.H.counts[p], rows[0]._labels[p]))
            while columns[p].bound < Q:
                self._extend_column(p)
        self.n = n

    def _extend_row(self, q: int) -> None:
        """Add row q's next level p: at p = 1 the identity of each vertical
        q-string, and at p = 2 the composite of each composable pair of
        q-columns, are gathered from row q-1's."""
        D, C1, V, R = self.D, self.C1, self.V, self.layouts[q]
        X, label = self.rows[q], self._column_labels[q]
        p = X.bound + 1
        identity = composites = ()
        if p == 1:
            identity = D.h_identity
            if q > 1:
                identity = C1.encode(q, self.rows[q - 1]._degens[0][0], V.parent[q],
                                     D.h_identity, V.last[q])
        elif p == 2:
            composites = D.h_composites
            if q > 1:
                # a composite column is the composite of the two columns'
                # first q-1 squares (row q-1) over the composite of their
                # last squares (row 1)
                parent, last, left, right = C1.parent[q], C1.last[q], R.parent[2], R.last[2]
                composites = C1.encode(
                    q,
                    self.rows[q - 1]._faces[2][1],
                    self.layouts[q - 1].encode(2, parent, left, parent, right),
                    D.h_composites,
                    self.layouts[1].encode(2, last, left, last, right),
                )
        if p >= 2:
            label = partial(_matrix_label, label, R, p)
        self.rows[q] = extend_nerve(X, R, identity, composites, label)

    def _extend_column(self, p: int) -> None:
        """Add column p >= 2's next level q: it reads column p-1 on the first
        p-1 columns of a p-tuple and column 1 on the last, so a p-tuple of row
        q maps to (T parent, t last) in row q -/+ 1, T and t the same table of
        columns p-1 and 1."""
        X, prev, col1 = self.columns[p], self.columns[p - 1], self.columns[1]
        q = X.bound + 1
        up, here = self.layouts[q - 1], self.layouts[q]
        self.columns[p] = X.extended(
            here.counts[p],
            [up.encode(p, T, here.parent[p], t, here.last[p])
             for T, t in zip(prev._faces[q], col1._faces[q])],
            [here.encode(p, T, up.parent[p], t, up.last[p])
             for T, t in zip(prev._degens[q - 1], col1._degens[q - 1])],
            self.rows[q]._labels[p],
        )

    def nerve(self) -> TruncatedBisimplicialSet:
        """The double nerve at the current stage."""
        return TruncatedBisimplicialSet(self.rows, self.columns)

    def keys(self) -> tuple[tuple[tuple[object, ...], ...], ...]:
        """The key behind every bisimplex id of the current stage, as
        :func:`double_nerve_indexed` describes them, read off the layouts."""
        P, Q = min(self.n, self.P), min(self.n, self.Q)
        v_keys = self.V.keys()
        row_keys = [R.keys() for R in self.layouts]
        c1_keys = self.C1.keys() if self.C1 is not None else ()
        return tuple(
            tuple(
                v_keys[q] if p == 0 else row_keys[0][p] if q == 0
                else tuple(tuple(c1_keys[q][c] for c in key) for key in row_keys[q][p])
                for q in range(Q + 1)
            )
            for p in range(P + 1)
        )


def _level_zero(count: int, label: Label) -> TruncatedSimplicialSet:
    """A line's level 0, which the build extends a level at a time."""
    return TruncatedSimplicialSet([count], [[]], [[]], [label])


def _reach(L: NerveLayout, bound: int) -> None:
    while L.bound < bound:
        L.add_level()


def _built(D: DoubleGroupoid, P: int, Q: int) -> _DoubleNerveBuild:
    """The build of the double nerve run to (P, Q), laid out in full first."""
    build = _DoubleNerveBuild(D, P, Q)
    build.lay_out(max(P, Q))
    while build.n < max(P, Q):
        build.advance()
    return build


def diagonal_stages(D: DoubleGroupoid, bound: int) -> Stages:
    """The diagonal of ``double_nerve(D, bound, bound)`` as
    :class:`~kancheck.simplicial.Stages`: stage n is the diagonal of stage n
    of the build, the diagonal of ``double_nerve(D, n, n)``, grown with the
    double nerve by their levels n only when first asked for.  So a to-point
    check (:func:`kancheck.kan.check_kan_to_point`) builds level n only when
    its first cell at n starts, and a level past the size budget is refused
    only at a level the check reaches.  The stages record no factors."""
    build = _DoubleNerveBuild(D, bound, bound)

    def grow(prev: TruncatedSimplicialSet) -> TruncatedSimplicialSet:
        build.advance()
        return extend_diagonal(prev, build.nerve())

    return Stages(diagonal(build.nerve()), grow, bound)


def double_nerve_indexed(
    D: DoubleGroupoid, P: int, Q: int
) -> tuple[TruncatedBisimplicialSet, tuple[tuple[tuple[object, ...], ...], ...]]:
    """The double nerve together with the key behind every bisimplex id.

    ``keys[p][q]``: (0,0) levels hold object indices, (p,0) levels horizontal
    arrow strings, (0,q) levels vertical arrow strings, and (p,q) levels
    p-column matrices, each column a tuple of vertically chained squares, top
    first; every level in ascending lexicographic order.  The keys are read
    off the layouts of the build.
    """
    build = _built(D, P, Q)
    return build.nerve(), build.keys()


def double_nerve(D: DoubleGroupoid, P: int, Q: int) -> TruncatedBisimplicialSet:
    """Matrices of composable squares, with composing faces and identity
    column/row degeneracies: the staged build run to (P, Q)."""
    return _built(D, P, Q).nerve()
