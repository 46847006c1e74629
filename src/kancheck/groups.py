"""Finite groups from explicit multiplication tables, with subgroup utilities.

Permutations compose right to left: ``(f*g)(x) = f(g(x))``.  Every report that
mentions group elements records this convention.
"""

from __future__ import annotations

from itertools import chain, permutations as _permutations, repeat
from operator import ne
from typing import Iterable, Sequence

from .errors import RejectedInput
from .simplicial import _int_tuple, gather

COMPOSITION_CONVENTION = "right-to-left (f*g applies g first)"


class FiniteGroup:
    """Element labels plus a fully validated multiplication table on indices."""

    __slots__ = ("labels", "table", "identity", "inverse", "_index")

    def __init__(self, labels: Sequence[str], table: Sequence[Sequence[int]]) -> None:
        self.labels = tuple(str(s) for s in labels)
        n = len(self.labels)
        if n == 0:
            raise RejectedInput("a group needs at least the identity element")
        if len(set(self.labels)) != n:
            raise RejectedInput("element labels must be distinct")
        if len(table) != n or any(len(row) != n for row in table):
            raise RejectedInput(f"multiplication table must be {n}x{n}")
        rows = []
        for row in table:
            r = _int_tuple(row, "multiplication table")
            if any(not 0 <= v < n for v in r):
                raise RejectedInput("table entries must be element indices")
            rows.append(r)
        self.table = tuple(rows)

        identity = None
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise RejectedInput("table has no two-sided identity element")
        self.identity = identity

        inverse = []
        for a in range(n):
            inv = next(
                (b for b in range(n)
                 if self.table[a][b] == identity and self.table[b][a] == identity),
                None,
            )
            if inv is None:
                raise RejectedInput(f"element {self.labels[a]!r} has no inverse")
            inverse.append(inv)
        self.inverse = tuple(inverse)

        # a row at a time: (ab)c over every c is row ab, and a(bc) is row a
        # read at row b; only a mismatch is searched for its first c
        T = self.table
        rows = list(map(list, T))
        for a in range(n):
            for b in range(n):
                if gather(T[a], T[b]) != rows[T[a][b]]:
                    c = next(c for c in range(n) if T[T[a][b]][c] != T[a][T[b][c]])
                    raise RejectedInput(
                        "associativity fails at "
                        f"({self.labels[a]!r}, {self.labels[b]!r}, {self.labels[c]!r})"
                    )
        self._index = {s: k for k, s in enumerate(self.labels)}

    @property
    def order(self) -> int:
        return len(self.labels)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):
            raise RejectedInput(f"no element labelled {label!r}") from None

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, labels={self.labels})"


def group_from_table(labels: Sequence[str], table: Sequence[Sequence[int]]) -> FiniteGroup:
    return FiniteGroup(labels, table)


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise RejectedInput("cyclic group order must be positive")
    labels = ["e"] + [f"g{k}" if k > 1 else "g" for k in range(1, n)]
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(labels, table)


def _cycle_notation(images: tuple[int, ...]) -> str:
    """Cycle notation, on the points 1..n, for a permutation given by its
    0-based images."""
    n = len(images)
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start] or images[start] == start:
            seen[start] = True
            continue
        cycle = [start + 1]
        seen[start] = True
        nxt = images[start]
        while nxt != start:
            cycle.append(nxt + 1)
            seen[nxt] = True
            nxt = images[nxt]
        cycles.append(cycle)
    if not cycles:
        return "id"
    return "".join("(" + ",".join(str(v) for v in c) + ")" for c in cycles)


def _compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """``f*g`` on 0-based image tuples, right to left: g is applied first."""
    return tuple(gather(f, g))


def _permutation_group(elements: Iterable[tuple[int, ...]]) -> FiniteGroup:
    """The group of the given 0-based permutations, a set closed under
    composition, ordered by the number of points moved, then by images."""
    elements = sorted(elements, key=lambda p: (sum(map(ne, p, range(len(p)))), p))
    pos = {p: k for k, p in enumerate(elements)}
    # a row at a time: row a is every a*b, one gather of a by all the b's
    # images end to end, cut back into tuples of the degree and looked up
    flat, degree = list(chain.from_iterable(elements)), len(elements[0])
    table = [list(map(pos.__getitem__, zip(*[iter(gather(a, flat))] * degree))) for a in elements]
    return FiniteGroup(list(map(_cycle_notation, elements)), table)


def group_from_permutations(
    degree: int, generators: Iterable[Sequence[int]]
) -> FiniteGroup:
    """Close a set of permutations (1-based image lists) under composition."""
    (degree,) = _int_tuple([degree], "permutation degree")
    if not 1 <= degree <= 6:
        raise RejectedInput("permutation degree must be between 1 and 6")
    gens = []
    for g in generators:
        perm = _int_tuple(g, "permutation images")
        if sorted(perm) != list(range(1, degree + 1)):
            raise RejectedInput(f"{perm} is not a permutation of 1..{degree}")
        gens.append(tuple(v - 1 for v in perm))
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for y in map(_compose, gens, repeat(x)):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return _permutation_group(seen)


def symmetric_group_preset(n: int) -> FiniteGroup:
    """The full symmetric group on {1..n} with cycle-notation labels, n <= 4."""
    if not 1 <= n <= 4:
        raise RejectedInput("symmetric group preset supports 1 <= n <= 4")
    return _permutation_group(_permutations(range(n)))


def _members(G: FiniteGroup, elems: Sequence[int], name: str) -> set[int]:
    """The distinct members of ``elems``, refused unless each is an exact int
    in ``range(G.order)``."""
    members = set(_int_tuple(elems, name))
    if any(not 0 <= a < G.order for a in members):
        raise RejectedInput(f"{name} contains indices outside the group")
    return members


def _closed(G: FiniteGroup, subset: set[int]) -> bool:
    if G.identity not in subset:
        return False
    return all(
        G.mul(a, b) in subset and G.inv(a) in subset for a in subset for b in subset
    )


def is_subgroup(G: FiniteGroup, elems: Sequence[int]) -> bool:
    """Whether ``elems`` is a subgroup of G; ``RejectedInput`` for a member
    that is not an int in ``range(G.order)``."""
    return _closed(G, _members(G, elems, "subgroup"))


def _require_subgroup(G: FiniteGroup, elems: Sequence[int], name: str) -> tuple[int, ...]:
    members = _members(G, elems, name)
    if not _closed(G, members):
        raise RejectedInput(f"{name} is not a subgroup (not closed under product and inverse)")
    return tuple(sorted(members))


def product_set(G: FiniteGroup, A: Sequence[int], B: Sequence[int]) -> frozenset[int]:
    """The set of products {a*b : a in A, b in B}."""
    return frozenset(G.mul(a, b) for a in A for b in B)


def subgroup_products_distinct(G: FiniteGroup, A: Sequence[int], B: Sequence[int]) -> bool:
    """True iff the product sets AB and BA differ; A and B must be subgroups."""
    A = _require_subgroup(G, A, "A")
    B = _require_subgroup(G, B, "B")
    return product_set(G, A, B) != product_set(G, B, A)


def subgroup_group(G: FiniteGroup, elems: Sequence[int]) -> FiniteGroup:
    """A subgroup of G repackaged as a standalone group with inherited labels."""
    members = _require_subgroup(G, elems, "subgroup")
    pos = {a: k for k, a in enumerate(members)}
    table = [[pos[G.mul(a, b)] for b in members] for a in members]
    return FiniteGroup([G.labels[a] for a in members], table)
