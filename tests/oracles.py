"""Per-simplex reference implementations of the simplicial laws.

The library checks every law as a comparison of whole table columns.  These
are the direct readings of the definitions, one simplex and one operator at
a time, kept as the oracles the table code is tested against: operator words
applied by sequential lookups, the face and degeneracy operators of a
bisimplex, and the identity, commutation and naturality checks.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from kancheck.bisimplicial import (
    BisimplicialMap,
    BisimplicialReport,
    CommutationViolation,
    TruncatedBisimplicialSet,
)
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
