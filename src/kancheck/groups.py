"""Finite groups from explicit multiplication tables, with subgroup utilities.

Permutations compose right to left: ``(f*g)(x) = f(g(x))``.  Every report that
mentions group elements records this convention.
"""

from __future__ import annotations

from itertools import chain, compress, permutations as _permutations, repeat
from operator import eq, itemgetter, ne
from typing import Callable, Iterable, Sequence

from .errors import RejectedInput
from .simplicial import _int_tuple, gather

COMPOSITION_CONVENTION = "right-to-left (f*g applies g first)"


class FiniteGroup:
    """Element labels plus a fully validated multiplication table on indices.

    Associativity is decided by Light's test (Clifford and Preston, *The
    Algebraic Theory of Semigroups* I, 1961, section 1.2): the middle nucleus
    ``{b : (ab)c = a(bc) for all a, c}`` holds the identity and is closed
    under the product, so the table is associative as soon as it holds each
    element of a generating set (:func:`_first_nonassociative`).  Only a table
    that fails there is scanned in full, so the message still names the first
    failing triple ``(a, b, c)`` in the order of a loop over a, then b, then c.
    """

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
            if min(r) < 0 or max(r) >= n:
                raise RejectedInput("table entries must be element indices")
            rows.append(r)
        self.table = T = tuple(rows)

        # the first e whose row and column are both the identity map
        ident = tuple(range(n))
        identity = next(
            (e for e in range(n) if T[e] == ident and tuple(map(itemgetter(e), T)) == ident),
            None,
        )
        if identity is None:
            raise RejectedInput("table has no two-sided identity element")
        self.identity = identity

        inverse = []
        for a in range(n):
            # the first b with ab = e, among the b where row a holds e, and ba = e
            inv = next(
                (b for b in compress(ident, map(eq, T[a], repeat(identity)))
                 if T[b][a] == identity),
                None,
            )
            if inv is None:
                raise RejectedInput(f"element {self.labels[a]!r} has no inverse")
            inverse.append(inv)
        self.inverse = tuple(inverse)

        point = (0,) * n
        triple = _first_nonassociative(T, self.mul, point, point, (identity,))
        if triple is not None:
            a, b, c = (self.labels[x] for x in triple)
            raise RejectedInput(f"associativity fails at ({a!r}, {b!r}, {c!r})")
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


def _by_value(keys: Sequence[int]) -> dict[int, list[int]]:
    """The positions of each value of ``keys``, ascending, one list per value."""
    out: dict[int, list[int]] = {}
    for x, k in enumerate(keys):
        out.setdefault(k, []).append(x)
    return out


def _ranks(buckets: Iterable[list[int]], n: int) -> list[int]:
    """Each of the ids ``range(n)`` ranked within its bucket."""
    pos = [0] * n
    for bucket in buckets:
        for k, y in enumerate(bucket):
            pos[y] = k
    return pos


def _generating_set(
    rows: Sequence[Sequence[int]], pos: Sequence[int], source: Sequence[int],
    target: Sequence[int], identities: Iterable[int],
) -> list[int]:
    """A generating set of the arrows of a finite groupoid given as in
    :func:`_light_associative`: each arrow, in id order, that is not a
    composite ``a s`` of an arrow reached before it (the identities first)
    and a generator so far."""
    gens: list[int] = []
    reached = set(identities)
    for g in range(len(rows)):
        if g in reached:
            continue
        gens.append(g)
        frontier = list(reached)
        while frontier:
            frontier = list({
                rows[a][pos[s]] for a in frontier for s in gens if source[a] == target[s]
            } - reached)
            reached.update(frontier)
    return gens


def _group_generators(G: FiniteGroup) -> list[int]:
    """The generating set of :func:`_generating_set` for a group."""
    point = (0,) * G.order
    return _generating_set(G.table, range(G.order), point, point, (G.identity,))


def _light_associative(
    rows: Sequence[Sequence[int]], source: Sequence[int], target: Sequence[int],
    identities: Iterable[int],
) -> bool:
    """Whether ``(ab)c == a(bc)`` for every composable triple of a finite
    groupoid whose identity laws hold, by Light's test.

    Arrow x runs from ``source[x]`` to ``target[x]``, and ``ab`` is defined
    when ``source[a] == target[b]``; ``rows[a]`` lists ``ab`` for those b,
    ascending.  The middle nucleus ``{b : (ab)c = a(bc) for all a, c}`` holds
    the identities and is closed under composition, so it is everything once
    it holds a generating set: one gathered column per arrow a is compared
    with a row for each generator b.  The argument needs every composite to
    run from its right factor's source to its left factor's target; when one
    does not, or a generator fails, the answer is False and the caller's full
    scan decides.
    """
    rows = [list(r) for r in rows]
    by_target = _by_value(target)
    into = {o: gather(source, ys) for o, ys in by_target.items()}
    for x, row in enumerate(rows):
        if gather(source, row) != into.get(source[x], []):
            return False
        if set(gather(target, row)) - {target[x]}:
            return False
    by_source = _by_value(source)
    pos = _ranks(by_target.values(), len(rows))
    for b in _generating_set(rows, pos, source, target, identities):
        # a(bc) over every c is row a read at the positions of row b
        bc, at_b = gather(pos, rows[b]), pos[b]
        for a in by_source.get(target[b], ()):
            row = rows[a]
            if gather(row, bc) != rows[row[at_b]]:
                return False
    return True


def _first_nonassociative(
    rows: Sequence[Sequence[int]], compose: Callable[[int, int], int],
    source: Sequence[int], target: Sequence[int], identities: Iterable[int],
) -> tuple[int, int, int] | None:
    """None when ``(ab)c == a(bc)`` for every composable triple of a finite
    groupoid whose identity laws hold, else the first failing triple (a, b, c)
    in the order of a loop over a, then b, then c.

    ``rows`` are as in :func:`_light_associative`, which decides first, and
    ``compose(a, b)`` is the same ``ab``.  Only a groupoid that Light's test
    does not pass is scanned in full; the scan calls ``compose`` on what it
    meets, so one that raises for a pair that does not compose raises there.
    """
    if _light_associative(rows, source, target, identities):
        return None
    after = _by_value(target)
    for a in range(len(source)):
        for b in after.get(source[a], ()):
            ab = compose(a, b)
            for c in after.get(source[b], ()):
                if compose(ab, c) != compose(a, compose(b, c)):
                    return a, b, c
    return None


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
