"""Double groupoids, the one-object subgroup-pair example, and double nerves.

Squares are drawn with horizontal arrows pointing left and vertical arrows
pointing up: ``top: b -> c`` across the top, ``right: a -> b`` up the right,
``bottom: a -> d`` across the bottom and ``left: d -> c`` up the left.
Horizontal composition glues a left square's right edge to a right square's
left edge; vertical composition glues an upper square's bottom edge to a
lower square's top edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bisimplicial import TruncatedBisimplicialSet
from .errors import RejectedInput
from .groups import FiniteGroup
from .groupoids import FiniteGroupoid, keyed_simplicial_set, nerve_indexed, one_object_groupoid


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
    """

    __slots__ = ("horizontal", "vertical", "squares", "_square_index",
                 "_h_comp", "_v_comp", "h_identity", "v_identity")

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
        self._square_index = {sq: k for k, sq in enumerate(self.squares)}
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
            self._locate(Square(a, v.identity(h.arrow_source[a]), a,
                                v.identity(h.arrow_target[a])),
                         f"vertical identity square of horizontal arrow {a}")
            for a in range(h.n_arrows)
        )
        self.h_identity = tuple(
            self._locate(Square(h.identity(v.arrow_target[b]), b,
                                h.identity(v.arrow_source[b]), b),
                         f"horizontal identity square of vertical arrow {b}")
            for b in range(v.n_arrows)
        )

        self._h_comp: dict[tuple[int, int], int] = {}
        self._v_comp: dict[tuple[int, int], int] = {}
        for s_id, s in enumerate(self.squares):
            for t_id, t in enumerate(self.squares):
                if s.right == t.left:
                    self._h_comp[(s_id, t_id)] = self._locate(
                        Square(h.compose(s.top, t.top), t.right,
                               h.compose(s.bottom, t.bottom), s.left),
                        f"horizontal composite of {s} and {t}",
                    )
                if s.bottom == t.top:
                    self._v_comp[(s_id, t_id)] = self._locate(
                        Square(s.top, v.compose(s.right, t.right),
                               t.bottom, v.compose(s.left, t.left)),
                        f"vertical composite of {s} and {t}",
                    )
        self._validate_groupoid_laws()
        self._validate_interchange()
        for obj in range(len(h.objects)):
            if self.h_identity[v.identity(obj)] != self.v_identity[h.identity(obj)]:
                raise RejectedInput(
                    f"identity squares disagree on the identity arrows at object {obj}"
                )

    def _locate(self, sq: Square, what: str) -> int:
        try:
            return self._square_index[sq]
        except KeyError:
            raise RejectedInput(f"{what} is missing from the square set") from None

    def _validate_groupoid_laws(self) -> None:
        n = len(self.squares)
        for s_id, s in enumerate(self.squares):
            if self.h_compose(s_id, self.h_identity[s.right]) != s_id:
                raise RejectedInput(f"horizontal right identity law fails at {s}")
            if self.h_compose(self.h_identity[s.left], s_id) != s_id:
                raise RejectedInput(f"horizontal left identity law fails at {s}")
            if self.v_compose(s_id, self.v_identity[s.bottom]) != s_id:
                raise RejectedInput(f"vertical lower identity law fails at {s}")
            if self.v_compose(self.v_identity[s.top], s_id) != s_id:
                raise RejectedInput(f"vertical upper identity law fails at {s}")
            if not any(
                self._h_comp[(s_id, t_id)] == self.h_identity[s.left]
                and self._h_comp[(t_id, s_id)] == self.h_identity[s.right]
                for t_id, t in enumerate(self.squares)
                if t.left == s.right and t.right == s.left
            ):
                raise RejectedInput(f"{s} has no horizontal inverse")
            if not any(
                self._v_comp[(s_id, t_id)] == self.v_identity[s.top]
                and self._v_comp[(t_id, s_id)] == self.v_identity[s.bottom]
                for t_id, t in enumerate(self.squares)
                if t.top == s.bottom and t.bottom == s.top
            ):
                raise RejectedInput(f"{s} has no vertical inverse")
        for (a, b), ab in self._h_comp.items():
            for c in range(n):
                if (b, c) in self._h_comp:
                    if self.h_compose(ab, c) != self.h_compose(a, self._h_comp[(b, c)]):
                        raise RejectedInput(f"horizontal associativity fails at ({a},{b},{c})")
        for (a, b), ab in self._v_comp.items():
            for c in range(n):
                if (b, c) in self._v_comp:
                    if self.v_compose(ab, c) != self.v_compose(a, self._v_comp[(b, c)]):
                        raise RejectedInput(f"vertical associativity fails at ({a},{b},{c})")

    def _validate_interchange(self) -> None:
        for (s, t), st in self._h_comp.items():
            for (g, d), gd in self._h_comp.items():
                if (s, g) in self._v_comp and (t, d) in self._v_comp:
                    lhs = self.v_compose(st, gd)
                    rhs = self.h_compose(self._v_comp[(s, g)], self._v_comp[(t, d)])
                    if lhs != rhs:
                        raise RejectedInput(
                            f"interchange law fails at squares ({s},{t},{g},{d})"
                        )

    @property
    def n_squares(self) -> int:
        return len(self.squares)

    def square_id(self, sq: Square) -> int:
        return self._locate(sq, f"square {sq}")

    def has_square(self, sq: Square) -> bool:
        return sq in self._square_index

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
    squares = [
        Square(ta, rb, ba, lb)
        for ta, a in enumerate(A)
        for rb, b in enumerate(B)
        for ba, a2 in enumerate(A)
        for lb, b2 in enumerate(B)
        if G.mul(a, b) == G.mul(b2, a2)
    ]
    return DoubleGroupoid(h, v, squares)


ColumnKey = tuple[int, ...]          # squares of one column, top row first
MatrixKey = tuple[ColumnKey, ...]    # columns left to right


def _matrix_keys(D: DoubleGroupoid, P: int, Q: int) -> list[list[tuple[MatrixKey, ...]]]:
    """``keys[p][q]`` for 1 <= p <= P, 1 <= q <= Q, in ascending lexicographic order.

    A matrix grows by the column chains whose left vertical line equals its
    last right vertical line; the chains are indexed by that line, so no
    matrix is ever paired with a column that does not fit.
    """
    sq = D.squares
    below: dict[int, list[int]] = {}
    for s in range(D.n_squares):
        below.setdefault(sq[s].top, []).append(s)
    keys: list[list[tuple[MatrixKey, ...]]] = [[() for _ in range(Q + 1)] for _ in range(P + 1)]
    chains: list[ColumnKey] = [(s,) for s in range(D.n_squares)]
    for q in range(1, Q + 1):
        if q > 1:
            chains = [c + (s,) for c in chains for s in below.get(sq[c[-1]].bottom, ())]
        by_left: dict[tuple[int, ...], list[ColumnKey]] = {}
        for c in chains:
            by_left.setdefault(tuple(sq[s].left for s in c), []).append(c)
        mats: list[MatrixKey] = [(c,) for c in chains]
        for p in range(1, P + 1):
            if p > 1:
                mats = [
                    m + (c,)
                    for m in mats
                    for c in by_left.get(tuple(sq[s].right for s in m[-1]), ())
                ]
            keys[p][q] = tuple(mats)
    return keys


def double_nerve_indexed(
    D: DoubleGroupoid, P: int, Q: int
) -> tuple[TruncatedBisimplicialSet, tuple[tuple[tuple[object, ...], ...], ...]]:
    """The double nerve together with the key behind every bisimplex id.

    Keys: (0,0) levels hold object indices, (p,0) levels horizontal arrow
    strings, (0,q) levels vertical arrow strings, and (p,q) levels p-column
    matrices of vertically chained squares with matching shared edges.  Row 0
    and column 0 are the nerves of the horizontal and vertical groupoids; every
    other line is built from its keys by the same table builder.
    """
    if P < 0 or Q < 0:
        raise RejectedInput("bounds must be nonnegative")
    sq = D.squares
    row0, h_keys = nerve_indexed(D.horizontal, P)
    col0, v_keys = nerve_indexed(D.vertical, Q)
    grid = _matrix_keys(D, P, Q)
    keys = tuple(
        tuple(v_keys[q] if p == 0 else h_keys[p] if q == 0 else grid[p][q] for q in range(Q + 1))
        for p in range(P + 1)
    )
    labels = [
        [
            row0._labels[p] if q == 0 else col0._labels[q] if p == 0 else [
                ";".join("|".join(D.square_label(s) for s in c) for c in key)
                for key in grid[p][q]
            ]
            for q in range(Q + 1)
        ]
        for p in range(P + 1)
    ]

    def v_line(mat: MatrixKey, i: int) -> tuple[int, ...]:
        """Vertical arrows along the i-th vertical line, top row first."""
        if i == 0:
            return tuple(sq[s].left for s in mat[0])
        return tuple(sq[s].right for s in mat[i - 1])

    def h_level(mat: MatrixKey, j: int) -> tuple[int, ...]:
        """Horizontal arrows along the j-th horizontal level, left column first."""
        if j == 0:
            return tuple(sq[c[0]].top for c in mat)
        return tuple(sq[c[j - 1]].bottom for c in mat)

    def h_face_key(p: int, mat: MatrixKey, i: int) -> object:
        if p == 1:
            return v_line(mat, 1 if i == 0 else 0)
        if i == 0:
            return mat[1:]
        if i == p:
            return mat[:-1]
        merged = tuple(D.h_compose(a, b) for a, b in zip(mat[i - 1], mat[i]))
        return mat[: i - 1] + (merged,) + mat[i + 1:]

    def v_face_key(q: int, mat: MatrixKey, j: int) -> object:
        if q == 1:
            return h_level(mat, 0 if j == 1 else 1)
        if j == 0:
            return tuple(c[1:] for c in mat)
        if j == q:
            return tuple(c[:-1] for c in mat)
        return tuple(c[: j - 1] + (D.v_compose(c[j - 1], c[j]),) + c[j + 1:] for c in mat)

    def h_degen_key(p: int, key, i: int) -> object:
        """Insert an identity column; at p = 0 the key is a vertical string."""
        id_col: ColumnKey = tuple(D.h_identity[b] for b in (key if p == 0 else v_line(key, i)))
        return (id_col,) if p == 0 else key[:i] + (id_col,) + key[i:]

    def v_degen_key(q: int, key, j: int) -> object:
        """Insert an identity row; at q = 0 the key is a horizontal string."""
        if q == 0:
            return tuple((D.v_identity[a],) for a in key)
        id_row = (D.v_identity[a] for a in h_level(key, j))
        return tuple(c[:j] + (s,) + c[j:] for s, c in zip(id_row, key))

    rows = [row0] + [
        keyed_simplicial_set(
            [keys[p][q] for p in range(P + 1)], h_face_key, h_degen_key,
            [labels[p][q] for p in range(P + 1)],
        )
        for q in range(1, Q + 1)
    ]
    columns = [col0] + [
        keyed_simplicial_set(keys[p], v_face_key, v_degen_key, labels[p])
        for p in range(1, P + 1)
    ]
    return TruncatedBisimplicialSet(rows, columns), keys


def double_nerve(D: DoubleGroupoid, P: int, Q: int) -> TruncatedBisimplicialSet:
    """Matrices of composable squares, with composing faces and identity
    column/row degeneracies."""
    return double_nerve_indexed(D, P, Q)[0]
