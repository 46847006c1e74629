"""Per-simplex reference implementations of the simplicial laws, and
full-scan readings of the algebra laws.

The library checks every law as a comparison of whole table columns.  These
are the direct readings of the definitions, one simplex and one operator at
a time, kept as the oracles the table code is tested against: operator words
applied by sequential lookups, the face and degeneracy operators of a
bisimplex, and the identity, commutation, naturality and horn-family
compatibility checks.

The group, groupoid and double-groupoid constructors decide associativity by
Light's test and visit squares through edge buckets.  The oracles at the end
of this module check the same laws by looping over every triple, pair and
2x2 grid of ids, in ascending order, and give the message the first
violation is refused with.

``eg_reference`` builds EG one coordinate tuple at a time, apart from the
nerve layout the library builds it on, and ``tensor_reference`` builds the
whole grid of an external product at once, every row and column before any
is read.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, NamedTuple

from kancheck.bisimplicial import (
    BisimplicialMap,
    BisimplicialReport,
    CommutationViolation,
    TruncatedBisimplicialSet,
)
from kancheck.doublegroupoid import Square
from kancheck.errors import RejectedInput, TruncationError
from kancheck.ordinal import Degeneracy, Face, SimplicialOperator
from kancheck.simplicial import (
    IdentityReport,
    IdentityViolation,
    Simplex,
    SimplicialMap,
    TruncatedSimplicialSet,
)


def apply_operator(X: TruncatedSimplicialSet, op: SimplicialOperator, x: Simplex) -> Simplex:
    """Apply a word of face/degeneracy actions by sequential table lookups."""
    if x.dim != op.source_dim:
        raise RejectedInput(
            f"operator expects a {op.source_dim}-simplex, got dimension {x.dim}"
        )
    for token in op.word:
        if isinstance(token, Face):
            x = X.face(token.index, x)
        elif isinstance(token, Degeneracy):
            x = X.degeneracy(token.index, x)
    return x


def simplices(X: TruncatedSimplicialSet, n: int) -> Iterator[Simplex]:
    """The n-simplices of X in id order."""
    return (Simplex(n, idx) for idx in range(X.size(n)))


class BiSimplex(NamedTuple):
    p: int
    q: int
    idx: int


def map_apply(f: SimplicialMap, x: Simplex) -> Simplex:
    """The image of one simplex, read from its component."""
    return Simplex(x.dim, f.components[x.dim][x.idx])


def bimap_apply(f: BisimplicialMap, x: BiSimplex) -> BiSimplex:
    """The image of one bisimplex, read from its column map."""
    return BiSimplex(x.p, x.q, f.column_maps[x.p].components[x.q][x.idx])


def compatible(f: SimplicialMap, n: int, indices, faces, y: int) -> bool:
    """Whether the family with face ids ``faces`` at ``indices`` and target
    id y meets its equations, one simplex at a time: f x_i = d_i y, and
    d_i x_j = d_{j-1} x_i for i < j in I."""
    X, Y = f.domain, f.codomain
    xs = {i: Simplex(n - 1, x) for i, x in zip(indices, faces)}
    over = all(map_apply(f, x) == Y.face(i, Simplex(n, y)) for i, x in xs.items())
    return over and (n < 2 or all(
        X.face(i, xs[j]) == X.face(j - 1, xs[i]) for i in xs for j in xs if i < j
    ))


def bisimplices(X: TruncatedBisimplicialSet, p: int, q: int):
    return (BiSimplex(p, q, idx) for idx in range(X.size(p, q)))


def _on_row(X: TruncatedBisimplicialSet, x: BiSimplex) -> tuple[TruncatedSimplicialSet, Simplex]:
    if not 0 <= x.q <= X.bounds[1]:
        raise TruncationError(f"bisimplex level ({x.p},{x.q}) outside bounds {X.bounds}")
    return X.rows[x.q], Simplex(x.p, x.idx)


def _on_column(X: TruncatedBisimplicialSet, x: BiSimplex) -> tuple[TruncatedSimplicialSet, Simplex]:
    if not 0 <= x.p <= X.bounds[0]:
        raise TruncationError(f"bisimplex level ({x.p},{x.q}) outside bounds {X.bounds}")
    return X.columns[x.p], Simplex(x.q, x.idx)


def h_face(X: TruncatedBisimplicialSet, i: int, x: BiSimplex) -> BiSimplex:
    line, s = _on_row(X, x)
    return BiSimplex(x.p - 1, x.q, line.face(i, s).idx)


def v_face(X: TruncatedBisimplicialSet, i: int, x: BiSimplex) -> BiSimplex:
    line, s = _on_column(X, x)
    return BiSimplex(x.p, x.q - 1, line.face(i, s).idx)


def h_degeneracy(X: TruncatedBisimplicialSet, i: int, x: BiSimplex) -> BiSimplex:
    line, s = _on_row(X, x)
    return BiSimplex(x.p + 1, x.q, line.degeneracy(i, s).idx)


def v_degeneracy(X: TruncatedBisimplicialSet, i: int, x: BiSimplex) -> BiSimplex:
    line, s = _on_column(X, x)
    return BiSimplex(x.p, x.q + 1, line.degeneracy(i, s).idx)


def validate_simplicial_identities(X: TruncatedSimplicialSet) -> IdentityReport:
    """Exhaustively check every simplicial identity that stays within bound."""
    bad: list[IdentityViolation] = []

    def record(identity: str, n: int, i: int, j: int, idx: int, lhs: Simplex, rhs: Simplex) -> None:
        if lhs != rhs:
            bad.append(IdentityViolation(identity, n, i, j, idx, lhs, rhs))

    for n in range(X.bound + 1):
        for x in simplices(X, n):
            if n >= 2:
                for j in range(n + 1):
                    for i in range(j):
                        record(
                            "face-face", n, i, j, x.idx,
                            X.face(i, X.face(j, x)), X.face(j - 1, X.face(i, x)),
                        )
            if n + 2 <= X.bound:
                for i in range(n + 1):
                    for j in range(i, n + 1):
                        record(
                            "degen-degen", n, i, j, x.idx,
                            X.degeneracy(i, X.degeneracy(j, x)),
                            X.degeneracy(j + 1, X.degeneracy(i, x)),
                        )
            if n + 1 <= X.bound:
                for j in range(n + 1):
                    sx = X.degeneracy(j, x)
                    for i in range(n + 2):
                        got = X.face(i, sx)
                        if i < j:
                            record("face-degen-under", n, i, j, x.idx, got,
                                   X.degeneracy(j - 1, X.face(i, x)))
                        elif i in (j, j + 1):
                            record("face-degen-cancel", n, i, j, x.idx, got, x)
                        else:
                            record("face-degen-over", n, i, j, x.idx, got,
                                   X.degeneracy(j, X.face(i - 1, x)))
    for n in range(X.bound):
        for i in range(n + 1):
            seen: dict[int, int] = {}
            for idx in range(X.size(n)):
                v = X.degeneracy(i, Simplex(n, idx)).idx
                if v in seen:
                    bad.append(
                        IdentityViolation(
                            "degeneracy-not-injective", n, i, i, idx,
                            Simplex(n + 1, v), Simplex(n, seen[v]),
                        )
                    )
                else:
                    seen[v] = idx
    return IdentityReport(tuple(bad))


def validate_bisimplicial_identities(X: TruncatedBisimplicialSet) -> BisimplicialReport:
    """Check every row and column simplicially, and all mixed commutations."""
    P, Q = X.bounds
    rows = tuple(validate_simplicial_identities(X.rows[q]) for q in range(Q + 1))
    cols = tuple(validate_simplicial_identities(X.columns[p]) for p in range(P + 1))
    bad: list[CommutationViolation] = []

    def check(name_a, op_a, range_a, name_b, op_b, range_b, p, q):
        for x in bisimplices(X, p, q):
            for i in range_a:
                for j in range_b:
                    lhs = op_b(X, j, op_a(X, i, x))
                    rhs = op_a(X, i, op_b(X, j, x))
                    if lhs != rhs:
                        bad.append(CommutationViolation(name_a, name_b, p, q, i, j, x.idx))

    for p in range(P + 1):
        for q in range(Q + 1):
            if p >= 1 and q >= 1:
                check("h-face", h_face, range(p + 1), "v-face", v_face, range(q + 1), p, q)
            if p >= 1 and q < Q:
                check("h-face", h_face, range(p + 1), "v-degen", v_degeneracy, range(q + 1), p, q)
            if p < P and q >= 1:
                check("h-degen", h_degeneracy, range(p + 1), "v-face", v_face, range(q + 1), p, q)
            if p < P and q < Q:
                check("h-degen", h_degeneracy, range(p + 1), "v-degen", v_degeneracy, range(q + 1), p, q)
    return BisimplicialReport(rows, cols, tuple(bad))


def naturality_error(f: SimplicialMap) -> str | None:
    """The message a validating ``SimplicialMap`` raises for f's components,
    or None when f commutes with every face and degeneracy."""
    for n in range(1, f.domain.bound + 1):
        for x in simplices(f.domain, n):
            fx = map_apply(f, x)
            for i in range(n + 1):
                if map_apply(f, f.domain.face(i, x)) != f.codomain.face(i, fx):
                    return f"map does not commute with d_{i} at {x}"
    for n in range(f.domain.bound):
        for x in simplices(f.domain, n):
            fx = map_apply(f, x)
            for i in range(n + 1):
                if map_apply(f, f.domain.degeneracy(i, x)) != f.codomain.degeneracy(i, fx):
                    return f"map does not commute with s_{i} at {x}"
    return None


def _first_refusal(check, *args) -> str | None:
    """The message of the RejectedInput ``check(*args)`` raises, or None."""
    try:
        check(*args)
    except RejectedInput as exc:
        return str(exc)
    return None


def _group_scan(labels, T) -> None:
    n = len(T)
    identity = next(
        (e for e in range(n) if all(T[e][x] == x and T[x][e] == x for x in range(n))), None
    )
    if identity is None:
        raise RejectedInput("table has no two-sided identity element")
    for a in range(n):
        if not any(T[a][b] == identity and T[b][a] == identity for b in range(n)):
            raise RejectedInput(f"element {labels[a]!r} has no inverse")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if T[T[a][b]][c] != T[a][T[b][c]]:
                    raise RejectedInput(
                        f"associativity fails at ({labels[a]!r}, {labels[b]!r}, {labels[c]!r})"
                    )


def group_table_error(labels, table) -> str | None:
    """The refusal of a square table of element indices, labels distinct: no
    identity, an element without an inverse, or the first triple (a, b, c)
    with ``(ab)c != a(bc)``."""
    return _first_refusal(_group_scan, labels, table)


def failing_triples(table) -> list[tuple[int, int, int]]:
    """Every triple (a, b, c) of a group table with ``(ab)c != a(bc)``."""
    n = len(table)
    return [
        (a, b, c) for a in range(n) for b in range(n) for c in range(n)
        if table[table[a][b]][c] != table[a][table[b][c]]
    ]


def _groupoid_scan(n_objects, source, target, compose, identities) -> None:
    n = len(source)

    def comp(g, h):
        try:
            return compose[(g, h)]
        except KeyError:
            raise RejectedInput(f"arrows {g} and {h} are not composable") from None

    for o, e in enumerate(identities):
        if not (source[e] == o == target[e]):
            raise RejectedInput(f"identity arrow of object {o} has wrong endpoints")
    for g in range(n):
        for h in range(n):
            if (source[g] == target[h]) != ((g, h) in compose):
                raise RejectedInput(
                    f"composition must be defined exactly on composable pairs ({g},{h})"
                )
    for (g, h), k in compose.items():
        if not 0 <= k < n:
            raise RejectedInput("composition table points outside the arrow set")
        if source[k] != source[h] or target[k] != target[g]:
            raise RejectedInput(f"composite of ({g},{h}) has wrong endpoints")
    for g in range(n):
        if comp(g, identities[source[g]]) != g:
            raise RejectedInput(f"right identity law fails at arrow {g}")
        if comp(identities[target[g]], g) != g:
            raise RejectedInput(f"left identity law fails at arrow {g}")
    for g in range(n):
        for h in range(n):
            for k in range(n):
                if source[g] == target[h] and source[h] == target[k]:
                    if comp(comp(g, h), k) != comp(g, comp(h, k)):
                        raise RejectedInput(f"associativity fails at ({g},{h},{k})")
    for g in range(n):
        if not any(
            source[h] == target[g] and target[h] == source[g]
            and comp(g, h) == identities[target[g]] and comp(h, g) == identities[source[g]]
            for h in range(n)
        ):
            raise RejectedInput(f"arrow {g} has no inverse")


def groupoid_error(n_objects, source, target, compose, identities) -> str | None:
    """The refusal of a groupoid's tables, as ``FiniteGroupoid`` checks them
    once its entries are ints: identity endpoints, the composition's domain
    and endpoints, the identity laws, associativity over every composable
    triple (g, h, k) in ascending order, and inverses."""
    return _first_refusal(_groupoid_scan, n_objects, source, target, compose, identities)


def _h_composable(comp, s, t):
    try:
        return comp[(s, t)]
    except KeyError:
        raise RejectedInput(f"squares {s} and {t} are not horizontally composable") from None


def _v_composable(comp, s, t):
    try:
        return comp[(s, t)]
    except KeyError:
        raise RejectedInput(f"squares {s} and {t} are not vertically composable") from None


def _square_laws_scan(squares, h_comp, v_comp, h_identity, v_identity) -> None:
    n = len(squares)
    for s_id, s in enumerate(squares):
        if _h_composable(h_comp, s_id, h_identity[s.right]) != s_id:
            raise RejectedInput(f"horizontal right identity law fails at {s}")
        if _h_composable(h_comp, h_identity[s.left], s_id) != s_id:
            raise RejectedInput(f"horizontal left identity law fails at {s}")
        if _v_composable(v_comp, s_id, v_identity[s.bottom]) != s_id:
            raise RejectedInput(f"vertical lower identity law fails at {s}")
        if _v_composable(v_comp, v_identity[s.top], s_id) != s_id:
            raise RejectedInput(f"vertical upper identity law fails at {s}")
        if not any(
            h_comp[(s_id, t_id)] == h_identity[s.left]
            and h_comp[(t_id, s_id)] == h_identity[s.right]
            for t_id, t in enumerate(squares) if t.left == s.right and t.right == s.left
        ):
            raise RejectedInput(f"{s} has no horizontal inverse")
        if not any(
            v_comp[(s_id, t_id)] == v_identity[s.top]
            and v_comp[(t_id, s_id)] == v_identity[s.bottom]
            for t_id, t in enumerate(squares) if t.top == s.bottom and t.bottom == s.top
        ):
            raise RejectedInput(f"{s} has no vertical inverse")
    for name, comp, composable in (
        ("horizontal", h_comp, _h_composable), ("vertical", v_comp, _v_composable),
    ):
        for a, b in sorted(comp):
            for c in range(n):
                if (b, c) in comp:
                    lhs = composable(comp, comp[(a, b)], c)
                    if lhs != composable(comp, a, comp[(b, c)]):
                        raise RejectedInput(f"{name} associativity fails at ({a},{b},{c})")


def square_laws_error(squares, h_comp, v_comp, h_identity, v_identity) -> str | None:
    """The refusal of a double groupoid's composition tables by the groupoid
    laws of its squares: per square, its four identity laws and its two
    inverses; then associativity of each composition over every triple of
    square ids (a, b, c) in ascending order."""
    return _first_refusal(_square_laws_scan, squares, h_comp, v_comp, h_identity, v_identity)


def _interchange_scan(h_comp, v_comp) -> None:
    pairs = sorted(h_comp)
    for s, t in pairs:
        for g, d in pairs:
            if (s, g) in v_comp and (t, d) in v_comp:
                lhs = _v_composable(v_comp, h_comp[(s, t)], h_comp[(g, d)])
                rhs = _h_composable(h_comp, v_comp[(s, g)], v_comp[(t, d)])
                if lhs != rhs:
                    raise RejectedInput(f"interchange law fails at squares ({s},{t},{g},{d})")


def interchange_error(h_comp, v_comp) -> str | None:
    """The refusal of a double groupoid's composition tables by the
    interchange law, over every pair of horizontally composable pairs
    ((s, t), (g, d)) in ascending order that is a 2x2 grid, s above g and t
    above d: ``(s | t) / (g | d) == (s / g) | (t / d)``."""
    return _first_refusal(_interchange_scan, h_comp, v_comp)


def _double_groupoid_scan(h, v, squares) -> None:
    squares = tuple(squares)
    index = {sq: k for k, sq in enumerate(squares)}
    if len(index) != len(squares):
        raise RejectedInput("duplicate squares")

    def locate(sq, what):
        if sq not in index:
            raise RejectedInput(f"{what} is missing from the square set")
        return index[sq]

    for sq in squares:
        if h.arrow_source[sq.top] != v.arrow_target[sq.right]:
            raise RejectedInput(f"{sq}: top and right edges miss each other")
        if h.arrow_target[sq.top] != v.arrow_target[sq.left]:
            raise RejectedInput(f"{sq}: top and left edges miss each other")
        if h.arrow_source[sq.bottom] != v.arrow_source[sq.right]:
            raise RejectedInput(f"{sq}: bottom and right edges miss each other")
        if h.arrow_target[sq.bottom] != v.arrow_source[sq.left]:
            raise RejectedInput(f"{sq}: bottom and left edges miss each other")
    v_identity = [
        locate(Square(a, v.identity(h.arrow_source[a]), a, v.identity(h.arrow_target[a])),
               f"vertical identity square of horizontal arrow {a}")
        for a in range(h.n_arrows)
    ]
    h_identity = [
        locate(Square(h.identity(v.arrow_target[b]), b, h.identity(v.arrow_source[b]), b),
               f"horizontal identity square of vertical arrow {b}")
        for b in range(v.n_arrows)
    ]
    h_comp, v_comp = {}, {}
    for s_id, s in enumerate(squares):
        for t_id, t in enumerate(squares):
            if s.right == t.left:
                h_comp[(s_id, t_id)] = locate(
                    Square(h.compose(s.top, t.top), t.right, h.compose(s.bottom, t.bottom), s.left),
                    f"horizontal composite of {s} and {t}",
                )
            if s.bottom == t.top:
                v_comp[(s_id, t_id)] = locate(
                    Square(s.top, v.compose(s.right, t.right), t.bottom, v.compose(s.left, t.left)),
                    f"vertical composite of {s} and {t}",
                )
    _square_laws_scan(squares, h_comp, v_comp, h_identity, v_identity)
    _interchange_scan(h_comp, v_comp)
    for obj in range(len(h.objects)):
        if h_identity[v.identity(obj)] != v_identity[h.identity(obj)]:
            raise RejectedInput(f"identity squares disagree on the identity arrows at object {obj}")
    return h_comp, v_comp


def double_groupoid_error(h, v, squares) -> str | None:
    """The refusal of a square set over two groupoids, as ``DoubleGroupoid``
    checks it: duplicates, boundaries, the identity squares, every composite
    of every pair of squares (s, t) in ascending order, horizontal before
    vertical, then the square laws and interchange."""
    return _first_refusal(_double_groupoid_scan, h, v, squares)


def double_groupoid_tables(h, v, squares):
    """The composition tables of a lawful square set, each a dict from the
    composable pairs (s, t), in the order of a loop over s and then t, to
    the id of the composite."""
    return _double_groupoid_scan(h, v, squares)


def eg_coordinates(order: int, n: int) -> list[tuple[int, ...]]:
    """The (n+1)-tuples of elements of a group of this order, the
    n-simplices of EG, in ascending id order: a tuple read in base |G|."""
    return list(product(range(order), repeat=n + 1))


def eg_reference(G, bound: int) -> TruncatedSimplicialSet:
    """EG to ``bound`` from coordinate tuples: a face deletes a coordinate,
    a degeneracy repeats one, an id is its tuple read in base |G|, and a
    label lists the tuple's element labels."""
    order = G.order

    def encode(coords: tuple[int, ...]) -> int:
        idx = 0
        for c in coords:
            idx = idx * order + c
        return idx

    faces: list[list[list[int]]] = [[]]
    degens: list[list[list[int]]] = []
    labels = []
    for n in range(bound + 1):
        coords = eg_coordinates(order, n)
        if n > 0:
            faces.append([[encode(c[:i] + c[i + 1:]) for c in coords] for i in range(n + 1)])
        if n < bound:
            degens.append([[encode(c[: i + 1] + c[i:]) for c in coords] for i in range(n + 1)])
        labels.append(["(" + ",".join(G.labels[g] for g in c) + ")" for c in coords])
    degens.append([])
    return TruncatedSimplicialSet([order ** (n + 1) for n in range(bound + 1)], faces, degens, labels)


def tensor_reference(
    A: TruncatedSimplicialSet, B: TruncatedSimplicialSet
) -> TruncatedBisimplicialSet:
    """A (x) B with every row and column built first and handed to the
    checking constructor: (a, b) at level (p, q) has id ``a * |B_q| + b``,
    row q acts by A on the first coordinate and column p by B on the second,
    and a label pairs the factors' labels."""
    P, Q = A.bound, B.bound

    def on_first(table, width):
        return [a * width + b for a in table for b in range(width)]

    def on_second(table, height, width):
        return [a * width + b for a in range(height) for b in table]

    def pair_label(p, q):
        width = B.counts[q]

        def label(idx):
            a, b = divmod(idx, width)
            return f"({A.label(Simplex(p, a))},{B.label(Simplex(q, b))})"

        return label

    labels = [[pair_label(p, q) for q in range(Q + 1)] for p in range(P + 1)]
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
    return TruncatedBisimplicialSet(rows, columns)
