"""Finite groupoids, their nerves, and universal covers.

Nerve strings follow the right-to-left picture ``a_0 <- a_1 <- ... <- a_n``:
an n-simplex is a tuple ``(f_1, ..., f_n)`` with ``f_t : a_t -> a_{t-1}``, so
consecutive arrows satisfy ``src(f_t) == tgt(f_{t+1})``.  Outer faces drop the
outer arrows, inner faces compose adjacent ones, degeneracies insert an
identity arrow.

A nerve never builds these tuples to make its tables.  Its ids are laid out
level by level (:class:`NerveLayout`): level 0 is the objects, level 1 the
arrows, and level n >= 2 is two int columns, ``parent`` (the id of the string
without its last arrow) and ``last`` (that arrow).  A parent's children are
contiguous, so ``id(s + (g,)) = start[n][s] + pos[g]``, and every face and
degeneracy table is gathered from the tables one level down, a whole level
at a time, by the one gather kernel (:func:`kancheck.simplicial.gather`).
Keys and labels are read off the two columns on demand.
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate, chain, product, repeat
from operator import add
from typing import Sequence

from .errors import RejectedInput
from .groups import FiniteGroup, _by_value, _first_nonassociative, _group_generators
from .simplicial import (
    GroupAction,
    Label,
    TruncatedSimplicialSet,
    _int_tuple,
    _pairs,
    gather,
)


class FiniteGroupoid:
    """Objects and invertible arrows with a partial composition table.

    Construction checks that composition is defined exactly on the composable
    pairs, with the right endpoints, that the identity laws hold, that it is
    associative and that every arrow has an inverse.  Associativity is decided
    by Light's test (:func:`kancheck.groups._first_nonassociative`): only
    triples whose middle arrow is in a generating set are compared, and only a
    table that fails there is scanned in full, so the message still names the
    first failing triple ``(g, h, k)`` in the order of a loop over g, h, then
    k.
    """

    __slots__ = (
        "objects", "arrow_source", "arrow_target", "arrow_labels",
        "identity_arrows", "inverse", "_compose",
    )

    def __init__(
        self,
        objects: Sequence[str],
        arrow_source: Sequence[int],
        arrow_target: Sequence[int],
        compose: dict[tuple[int, int], int],
        identity_arrows: Sequence[int],
        arrow_labels: Sequence[str] | None = None,
    ) -> None:
        self.objects = tuple(str(o) for o in objects)
        n_obj = len(self.objects)
        if n_obj == 0:
            raise RejectedInput("a groupoid needs at least one object")
        self.arrow_source = _int_tuple(arrow_source, "arrow sources")
        self.arrow_target = _int_tuple(arrow_target, "arrow targets")
        n_arr = len(self.arrow_source)
        if len(self.arrow_target) != n_arr:
            raise RejectedInput("source and target tables must agree in length")
        if any(not 0 <= v < n_obj for v in self.arrow_source + self.arrow_target):
            raise RejectedInput("arrow endpoints must be object indices")
        self.arrow_labels = (
            tuple(str(s) for s in arrow_labels)
            if arrow_labels is not None
            else tuple(f"a{k}" for k in range(n_arr))
        )
        if len(self.arrow_labels) != n_arr:
            raise RejectedInput("need one label per arrow")
        self.identity_arrows = _int_tuple(identity_arrows, "identity arrows")
        if len(self.identity_arrows) != n_obj:
            raise RejectedInput("need one identity arrow per object")
        self._compose = dict(compose)
        _int_tuple(self._compose.values(), "composition table")
        self._validate()
        self.inverse = self._find_inverses()

    def _validate(self) -> None:
        n_arr = len(self.arrow_source)
        for o, e in enumerate(self.identity_arrows):
            if not (self.arrow_source[e] == o == self.arrow_target[e]):
                raise RejectedInput(f"identity arrow of object {o} has wrong endpoints")
        for g in range(n_arr):
            for h in range(n_arr):
                composable = self.arrow_source[g] == self.arrow_target[h]
                if composable != ((g, h) in self._compose):
                    raise RejectedInput(
                        f"composition must be defined exactly on composable pairs ({g},{h})"
                    )
        for (g, h), k in self._compose.items():
            if not 0 <= k < n_arr:
                raise RejectedInput("composition table points outside the arrow set")
            if self.arrow_source[k] != self.arrow_source[h] or self.arrow_target[k] != self.arrow_target[g]:
                raise RejectedInput(f"composite of ({g},{h}) has wrong endpoints")
        for g in range(n_arr):
            if self.compose(g, self.identity_arrows[self.arrow_source[g]]) != g:
                raise RejectedInput(f"right identity law fails at arrow {g}")
            if self.compose(self.identity_arrows[self.arrow_target[g]], g) != g:
                raise RejectedInput(f"left identity law fails at arrow {g}")
        src, tgt = self.arrow_source, self.arrow_target
        into = _by_value(tgt)
        rows = [list(map(self._compose.__getitem__, zip(repeat(g), into[src[g]])))
                for g in range(n_arr)]
        triple = _first_nonassociative(rows, self.compose, src, tgt, self.identity_arrows)
        if triple is not None:
            g, h, k = triple
            raise RejectedInput(f"associativity fails at ({g},{h},{k})")

    def _find_inverses(self) -> tuple[int, ...]:
        inverses = []
        for g in range(len(self.arrow_source)):
            src, tgt = self.arrow_source[g], self.arrow_target[g]
            inv = next(
                (
                    h for h in range(len(self.arrow_source))
                    if self.arrow_source[h] == tgt and self.arrow_target[h] == src
                    and self.compose(g, h) == self.identity_arrows[tgt]
                    and self.compose(h, g) == self.identity_arrows[src]
                ),
                None,
            )
            if inv is None:
                raise RejectedInput(f"arrow {g} has no inverse")
            inverses.append(inv)
        return tuple(inverses)

    @property
    def n_arrows(self) -> int:
        return len(self.arrow_source)

    def compose(self, g: int, h: int) -> int:
        """g after h; requires src(g) == tgt(h)."""
        try:
            return self._compose[(g, h)]
        except KeyError:
            raise RejectedInput(f"arrows {g} and {h} are not composable") from None

    def identity(self, obj: int) -> int:
        return self.identity_arrows[obj]

    def inv(self, g: int) -> int:
        return self.inverse[g]

    def __repr__(self) -> str:
        return f"FiniteGroupoid(objects={len(self.objects)}, arrows={self.n_arrows})"


def one_object_groupoid(G: FiniteGroup, object_label: str = "*") -> FiniteGroupoid:
    compose = {(g, h): G.mul(g, h) for g in range(G.order) for h in range(G.order)}
    return FiniteGroupoid(
        [object_label],
        [0] * G.order,
        [0] * G.order,
        compose,
        [G.identity],
        G.labels,
    )


def discrete_groupoid(names: Sequence[str]) -> FiniteGroupoid:
    n = len(names)
    compose = {(k, k): k for k in range(n)}
    return FiniteGroupoid(names, list(range(n)), list(range(n)), compose,
                          list(range(n)), [f"id_{s}" for s in names])


NerveKeys = tuple[tuple[object, ...], ...]

# The most simplices one nerve level may hold.  A level's count is known from
# the level below it before any of its columns is allocated, so a bound that
# would pass it is refused there instead of building for minutes.
MAX_LEVEL = 1 << 18


class NerveLayout:
    """The simplex ids of a nerve up to ``bound``, as one pair of int columns
    per level.

    Level 0 is the objects and level 1 the arrows: an arrow's id is itself.
    Level n >= 2 lists the strings ``s + (g,)``, ``s`` ascending at level n-1
    and ``g`` ascending among the arrows whose target is the source of the
    last arrow of ``s``, as ``parent[n]`` (the id of ``s``) and ``last[n]``
    (``g``).  The children of one parent are contiguous, so
    ``id(s + (g,)) = start[n][s] + pos[g]`` with ``pos[g]`` the rank of ``g``
    among the arrows with its target.  ``ids[n]`` holds level n's ids once, as
    the int objects every table entry refers to, so an entry costs a pointer.

    Reads only the object count and the arrow endpoint tables, so the nerve of
    anything with those has a layout.
    """

    __slots__ = ("bound", "counts", "source", "target", "pos", "ids", "parent", "last", "start")

    def __init__(
        self, n_objects: int, source: Sequence[int], target: Sequence[int], bound: int
    ) -> None:
        by_target: list[list[int]] = [[] for _ in range(n_objects)]
        pos = []
        for g, t in enumerate(target):
            pos.append(len(by_target[t]))
            by_target[t].append(g)
        fan = list(map(len, by_target))
        self.bound = bound
        self.counts = [n_objects, len(source)][: bound + 1]
        self.source, self.target, self.pos = source, target, pos
        self.ids: list[list[int]] = [[], list(range(len(source)))]
        self.parent: list[list[int]] = [[], []]
        self.last: list[list[int]] = [[], self.ids[1]]
        self.start: list[list[int]] = [[], []]
        for n in range(2, bound + 1):
            tails = gather(source, self.last[n - 1])
            fans = gather(fan, tails)
            count = sum(fans)
            if count > MAX_LEVEL:
                raise RejectedInput(
                    f"nerve level {n} would hold {count} simplices, over the limit of {MAX_LEVEL}"
                )
            self.counts.append(count)
            self.ids.append(list(range(count)))
            self.start.append(list(accumulate(fans, initial=0)))
            self.parent.append(list(chain.from_iterable(map(repeat, self.ids[n - 1], fans))))
            self.last.append(list(chain.from_iterable(gather(by_target, tails))))

    def at(self, n: int, heads: Sequence[int], tails: Sequence[int]) -> list[int]:
        """The level-n ids ``heads[k] + tails[k]``, block starts plus positions
        within the block, read back through ``ids[n]``."""
        return gather(self.ids[n], list(map(add, heads, tails)))

    def encode(
        self, n: int, head: Sequence[int], parents: Sequence[int],
        tail: Sequence[int], lasts: Sequence[int],
    ) -> list[int]:
        """The level-n ids of the strings ``head[p] + (tail[g],)`` for the pairs
        (p, g) of ``parents`` and ``lasts``: ``start[n][head[p]] +
        pos[tail[g]]``, with ``start`` composed with ``head`` and ``pos`` with
        ``tail`` on their own, smaller, levels before the gathers by
        ``parents`` and ``lasts``."""
        return self.at(
            n, gather(gather(self.start[n], head), parents), gather(gather(self.pos, tail), lasts)
        )

    def key(self, n: int, idx: int) -> tuple[int, ...]:
        """The arrows of the string with id ``idx`` at level n >= 1, first first."""
        arrows = []
        for m in range(n, 1, -1):
            arrows.append(self.last[m][idx])
            idx = self.parent[m][idx]
        arrows.append(idx)
        return tuple(reversed(arrows))

    def keys(self) -> NerveKeys:
        """Every level's keys in id order: object ids, then arrow strings."""
        level: list[tuple[int, ...]] = [(g,) for g in self.last[1]] if self.bound else []
        keys: list[tuple[object, ...]] = [tuple(range(self.counts[0]))]
        for n in range(1, self.bound + 1):
            if n > 1:
                tails = ((g,) for g in self.last[n])
                level = list(map(add, gather(level, self.parent[n]), tails))
            keys.append(tuple(level))
        return tuple(keys)


def nerve_set(
    L: NerveLayout, identity: Sequence[int], composites: Sequence[int], labels: Sequence[Label]
) -> TruncatedSimplicialSet:
    """The nerve on the ids of ``L``, given each object's identity arrow and
    the composite of each composable pair (in the order of level 2 of ``L``;
    unread below bound 2), labelled by ``labels``.

    Level 1 has faces ``source`` and ``target``; level 2 has ``d_0 = last``,
    ``d_1`` the composite and ``d_2 = parent``.  Above, every table is
    gathered a level at a time, ``(a, g)`` standing for the id
    ``start[a] + pos[g]`` of ``a + (g,)``: ``d_n = parent``,
    ``d_i = (d_i parent, last)`` for ``i < n-1``, and
    ``d_{n-1} = (parent parent, composite)`` with the composite of the last
    two arrows read from level 2, so ``compose`` runs once per composable
    pair.  ``s_i = (s_i parent, last)`` for ``i < n``, the parent of an arrow
    being its target, and ``s_n = (id, identity)`` appends an identity arrow.
    ``start`` is composed with each lower table on the smaller level before
    it is gathered by ``parent``, and each level's tail positions
    ``pos[last]`` are read once for all of its tables.
    """
    bound, source, target, pos = L.bound, L.source, L.target, L.pos
    faces: list[list[Sequence[int]]] = [[]]
    degens: list[list[Sequence[int]]] = []
    if bound >= 1:
        faces.append([source, target])
        degens.append([identity])

    # the position of the identity at each arrow's source
    id_pos = gather(pos, gather(identity, source))
    tail_pos = [[], pos] + [gather(pos, L.last[n]) for n in range(2, bound + 1)]
    for n in range(1, bound):
        start = L.start[n + 1]
        parent = L.parent[n] if n > 1 else target
        degens.append(
            [L.at(n + 1, gather(gather(start, s), parent), tail_pos[n]) for s in degens[n - 1]]
            + [L.at(n + 1, start[:-1], gather(id_pos, L.last[n]))]
        )
    degens.append([])
    if bound >= 2:
        faces.append([L.last[2], composites, L.parent[2]])
        composite_pos = gather(pos, composites)
    for n in range(3, bound + 1):
        start, parent, tails = L.start[n - 1], L.parent[n], tail_pos[n]
        pairs = map(add, gather(gather(L.start[2], L.last[n - 1]), parent), tails)
        faces.append(
            [L.at(n - 1, gather(gather(start, d), parent), tails) for d in faces[n - 1][: n - 1]]
            + [L.at(n - 1, gather(gather(start, L.parent[n - 1]), parent),
                   gather(composite_pos, list(pairs))),
               parent]
        )
    return TruncatedSimplicialSet(L.counts, faces, degens, labels)


def string_label(names: Sequence[str], L: NerveLayout, n: int, idx: int) -> str:
    """The label of the n-simplex ``idx`` of a nerve on ``L``: its arrows'
    names, first first, read off ``L`` for this one id."""
    return "|".join(names[g] for g in L.key(n, idx))


def nerve_and_layout(C: FiniteGroupoid, bound: int) -> tuple[TruncatedSimplicialSet, NerveLayout]:
    """The nerve together with the layout of its ids."""
    if bound < 0:
        raise RejectedInput("bound must be nonnegative")
    L = NerveLayout(len(C.objects), C.arrow_source, C.arrow_target, bound)
    composites = list(map(C.compose, L.parent[2], L.last[2])) if bound >= 2 else []
    labels = [C.objects.__getitem__] + [
        partial(string_label, C.arrow_labels, L, n) for n in range(1, bound + 1)
    ]
    return nerve_set(L, C.identity_arrows, composites, labels), L


def nerve_indexed(C: FiniteGroupoid, bound: int) -> tuple[TruncatedSimplicialSet, NerveKeys]:
    """The nerve together with the composable-string key behind each id."""
    N, L = nerve_and_layout(C, bound)
    return N, L.keys()


def nerve(C: FiniteGroupoid, bound: int) -> TruncatedSimplicialSet:
    """Strings of composable arrows, with composing faces and identity insertions."""
    return nerve_and_layout(C, bound)[0]


def _eg_label(G: FiniteGroup, n: int, idx: int) -> str:
    """The coordinates of the n-simplex ``idx`` of EG, most significant first."""
    coords = []
    for _ in range(n + 1):
        idx, c = divmod(idx, G.order)
        coords.append(G.labels[c])
    return "(" + ",".join(reversed(coords)) + ")"


def eg_construction(G: FiniteGroup, bound: int) -> TruncatedSimplicialSet:
    """The universal cover of a group: n-simplices are (n+1)-tuples of elements.

    Faces delete a coordinate; degeneracies repeat one, the unique choice that
    makes the simplicial identities hold with coordinate-deleting faces.

    The set carries the action of G by left multiplication,
    ``g (g_0, ..., g_n) = (g g_0, ..., g g_n)``, which commutes with every
    face and is free, with T_0 = {e}: one permutation column per generator
    and level (:class:`~kancheck.simplicial.GroupAction`).
    """
    if bound < 0:
        raise RejectedInput("bound must be nonnegative")
    order = G.order
    counts = [order ** (n + 1) for n in range(bound + 1)]

    def encode(coords: tuple[int, ...]) -> int:
        idx = 0
        for c in coords:
            idx = idx * order + c
        return idx

    faces: list[list[list[int]]] = [[]]
    degens: list[list[list[int]]] = []
    for n in range(bound + 1):
        # every id of level n decoded once: product's order is ascending id
        coords = list(product(range(order), repeat=n + 1))
        if n > 0:
            faces.append([[encode(c[:i] + c[i + 1:]) for c in coords] for i in range(n + 1)])
        if n < bound:
            degens.append([[encode(c[: i + 1] + c[i:]) for c in coords] for i in range(n + 1)])
    degens.append([])
    labels = [partial(_eg_label, G, n) for n in range(bound + 1)]
    X = TruncatedSimplicialSet(counts, faces, degens, labels)
    # an id is its prefix's id times |G| plus its last coordinate, so a
    # column is the one below paired with left multiplication
    columns = [[G.table[g] for g in _group_generators(G)]]
    for n in range(bound):
        columns.append([_pairs(col, left, order) for col, left in zip(columns[-1], columns[0])])
    X._action = GroupAction(tuple(tuple(map(tuple, level)) for level in columns), (G.identity,))
    return X
