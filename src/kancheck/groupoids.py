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
from itertools import accumulate, chain, cycle, repeat, tee
from operator import add
from typing import Iterable, Iterator, Sequence

from .errors import RejectedInput
from .groups import FiniteGroup, _by_value, _first_nonassociative
from .simplicial import (
    Label, SimplicialMap, TruncatedSimplicialSet, _int_tuple, gather, require_level,
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


ONE_OBJECT = "*"  # the label of a group's one object, as a groupoid


def one_object_groupoid(G: FiniteGroup) -> FiniteGroupoid:
    compose = {(g, h): G.mul(g, h) for g in range(G.order) for h in range(G.order)}
    return FiniteGroupoid(
        [ONE_OBJECT],
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
    A level's ids do not depend on the bound, so :meth:`add_level` adds the level
    above the bound from the one below and leaves every other level as it is.

    A layout lays out the ids of one nerve, and :func:`extend_nerve` keeps
    two of its columns here, each read once: ``id_pos``, the position of
    each arrow's source identity among the arrows with its target, set with
    level 1, and ``composite_pos``, that of each composable pair's
    composite, set with level 2.

    Reads only the object count and the arrow endpoint tables, so the nerve of
    anything with those has a layout.  A level past the size budget
    (:func:`kancheck.simplicial.require_level`) is refused before its
    columns are allocated.
    """

    __slots__ = ("bound", "counts", "source", "target", "pos", "ids", "parent", "last", "start",
                 "id_pos", "composite_pos", "_fan", "_by_target")

    def __init__(
        self, n_objects: int, source: Sequence[int], target: Sequence[int], bound: int
    ) -> None:
        by_target: list[list[int]] = [[] for _ in range(n_objects)]
        pos = []
        for g, t in enumerate(target):
            pos.append(len(by_target[t]))
            by_target[t].append(g)
        self._fan, self._by_target = list(map(len, by_target)), by_target
        self.bound = 0
        self.counts = [n_objects]
        self.source, self.target, self.pos = source, target, pos
        self.ids: list[Sequence[int]] = [[], tuple(range(len(source)))]
        self.parent: list[Sequence[int]] = [[], []]
        self.last: list[Sequence[int]] = [[], self.ids[1]]
        self.start: list[Sequence[int]] = [[], []]
        self.id_pos: Sequence[int] = ()
        self.composite_pos: Sequence[int] = ()
        while self.bound < bound:
            self.add_level()

    def add_level(self) -> None:
        """Add level ``bound + 1``.  Its count is known from the level below
        before any of its columns is allocated, and a level past the size
        budget is refused there."""
        n = self.bound + 1
        if n >= 2:
            tails = gather(self.source, self.last[n - 1])
            fans = gather(self._fan, tails)
            count = require_level(f"nerve level {n}", n, sum(fans))
            self.ids.append(tuple(range(count)))
            self.start.append(tuple(accumulate(fans, initial=0)))
            self.parent.append(tuple(chain.from_iterable(map(repeat, self.ids[n - 1], fans))))
            self.last.append(tuple(chain.from_iterable(gather(self._by_target, tails))))
        self.counts.append(len(self.ids[n]))
        self.bound = n

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


def extend_nerve(
    X: TruncatedSimplicialSet, L: NerveLayout, identity: Sequence[int],
    composites: Sequence[int], label: Label,
) -> TruncatedSimplicialSet:
    """X, the nerve on ``L`` up to level n - 1, with level n added (``L``
    must reach n), labelled by ``label``; each table is gathered from the
    tables one level down, and only the new ones are validated.

    Level 1 has faces ``source`` and ``target`` and ``s_0 = identity``;
    level 2 has ``d_0 = last``, ``d_1`` the composite (``composites``) and
    ``d_2 = parent``.  Above, ``(a, g)`` standing for the id
    ``start[a] + pos[g]`` of ``a + (g,)``: ``d_n = parent``,
    ``d_i = (d_i parent, last)`` for ``i < n-1``, and
    ``d_{n-1} = (parent parent, composite)`` with the composite of the last
    two arrows read from ``d_1`` at level 2, so composites are taken once per
    composable pair.  Into level n >= 2, ``s_i = (s_i parent, last)`` for
    ``i < n-1``, the parent of an arrow being its target, and
    ``s_{n-1} = (id, identity)`` appends an identity arrow, read from
    ``s_0`` at level 0.  ``start`` is composed with each lower table on the
    smaller level before it is gathered by ``parent``, and level n's tail
    positions ``pos[last]`` are read once for all of its faces.  The
    positions of the identities and of the composites are read once per
    layout, with levels 1 and 2 (``L.id_pos``, ``L.composite_pos``).
    """
    n, source, pos = X.bound + 1, L.source, L.pos
    if n == 1:
        L.id_pos = gather(pos, gather(identity, source))
        return X.extended(L.counts[1], [source, L.target], [identity], label)
    m, start = n - 1, L.start[n]
    # the degeneracies into level n, from level m = n - 1
    below = L.parent[m] if m > 1 else L.target
    tails_below = gather(pos, L.last[m]) if m > 1 else pos
    degens = [L.at(n, gather(gather(start, s), below), tails_below) for s in X._degens[m - 1]]
    degens.append(L.at(n, start[:-1], gather(L.id_pos, L.last[m])))
    if n == 2:
        L.composite_pos = gather(pos, composites)
        return X.extended(L.counts[2], [L.last[2], composites, L.parent[2]], degens, label)
    start, parent, tails = L.start[m], L.parent[n], gather(pos, L.last[n])
    pairs = map(add, gather(gather(L.start[2], L.last[m]), parent), tails)
    faces = [L.at(m, gather(gather(start, d), parent), tails) for d in X._faces[m][:m]]
    faces.append(L.at(m, gather(gather(start, L.parent[m]), parent),
                      gather(L.composite_pos, list(pairs))))
    faces.append(parent)
    return X.extended(L.counts[n], faces, degens, label)


def string_label(names: Sequence[str], L: NerveLayout, n: int, idx: int) -> str:
    """The label of the n-simplex ``idx`` of a nerve on ``L``: its arrows'
    names, first first, read off ``L`` for this one id."""
    return "|".join(names[g] for g in L.key(n, idx))


def nerve_and_layout(C: FiniteGroupoid, bound: int) -> tuple[TruncatedSimplicialSet, NerveLayout]:
    """The nerve together with the layout of its ids, recorded as
    2-coskeletal (see :func:`nerve`).  The whole layout is laid out first,
    so a level past the size budget is refused before any table is built."""
    if bound < 0:
        raise RejectedInput("bound must be nonnegative")
    L = NerveLayout(len(C.objects), C.arrow_source, C.arrow_target, bound)
    X = TruncatedSimplicialSet([L.counts[0]], [[]], [[]], [C.objects.__getitem__])
    for _ in range(bound):
        X = extend_groupoid_nerve(X, L, C)
    X._coskeletal = 2
    return X, L


def extend_groupoid_nerve(
    X: TruncatedSimplicialSet, L: NerveLayout, C: FiniteGroupoid
) -> TruncatedSimplicialSet:
    """X, the nerve of C on ``L`` up to level n - 1, with level n added
    (:func:`extend_nerve`), its strings labelled by their arrows' names."""
    n = X.bound + 1
    composites = list(map(C.compose, L.parent[2], L.last[2])) if n == 2 else ()
    return extend_nerve(
        X, L, C.identity_arrows, composites, partial(string_label, C.arrow_labels, L, n)
    )


def nerve_indexed(C: FiniteGroupoid, bound: int) -> tuple[TruncatedSimplicialSet, NerveKeys]:
    """The nerve together with the composable-string key behind each id."""
    N, L = nerve_and_layout(C, bound)
    return N, L.keys()


def nerve(C: FiniteGroupoid, bound: int) -> TruncatedSimplicialSet:
    """Strings of composable arrows, with composing faces and identity insertions.

    The nerve is 2-coskeletal, and is recorded so (``_coskeletal``): a map
    into it from the 2-skeleton of Δ^n is an object at each vertex and an
    arrow ``f_ij: j -> i`` on each edge i < j whose triangles say ``f_ik =
    f_ij f_jk``, so it is fixed by the string ``(f_01, f_12, ...,
    f_{n-1,n})`` of its spine, and every string gives one.  So it extends
    to Δ^n in exactly one way, an n-simplex, and so does a map from any
    part of Δ^n that holds its 2-skeleton.  A check over a point counts the
    horns and boundaries that hold it (:func:`kancheck.kan._check_to_point`)."""
    return nerve_and_layout(C, bound)[0]


def _eg_label(G: FiniteGroup, n: int, idx: int) -> str:
    """The coordinates of the n-simplex ``idx`` of EG, most significant first."""
    coords = []
    for _ in range(n + 1):
        idx, c = divmod(idx, G.order)
        coords.append(G.labels[c])
    return "(" + ",".join(reversed(coords)) + ")"


def _runs(ids: Sequence[int], starts: Iterable[int], width: int, times: int) -> Iterator[int]:
    """The runs ``ids[s : s + width]``, s in ``starts``, each ``times`` times
    over, end to end, in C-level passes; a run of one is an entry."""
    if width == 1:
        entries = map(ids.__getitem__, starts)
        return chain.from_iterable(map(repeat, entries, repeat(times))) if times > 1 else entries
    starts, ends = tee(starts)
    runs = map(ids.__getitem__, map(slice, starts, map(add, ends, repeat(width))))
    return chain.from_iterable(chain.from_iterable(map(repeat, runs, repeat(times))))


def eg_construction(G: FiniteGroup, bound: int) -> TruncatedSimplicialSet:
    """The universal cover of a group: n-simplices are (n+1)-tuples of elements.

    Faces delete a coordinate; degeneracies repeat one, the unique choice that
    makes the simplicial identities hold with coordinate-deleting faces.

    G acts freely by left multiplication, ``g (g_0, ..., g_n) =
    (g g_0, ..., g g_n)``, with quotient BG (:func:`eg_cover`).

    An id is its tuple read in base q = |G|, ``g_0`` first, and each table is
    written from the digits in runs sliced from a level's ids, so an entry
    costs a pointer.  At level n, digit i weighs ``w_i = q^(n-i)``: ``d_i``
    is the level below in runs of ``w_i``, each q times over, and ``s_i``
    maps the k-th value of digits 0..i to the ``w_{i+1}`` ids from ``(k q +
    k mod q) w_{i+1}``.  EG needs no layout: each level's count ``q^(n+1)``
    is a closed form, so every level is held to the size budget
    (:func:`kancheck.simplicial.require_level`) before any table is built.

    EG is 0-coskeletal: an n-simplex is its tuple of n + 1 vertices, and
    every tuple is one.  It is recorded so, and a check over a point counts
    its horns from dimension 2 and its boundaries from dimension 1
    (:func:`kancheck.kan._check_to_point`).
    """
    if bound < 0:
        raise RejectedInput("bound must be nonnegative")
    q = G.order
    for n in range(bound + 1):
        require_level(f"EG level {n}", n, q ** (n + 1))
    ids = tuple(range(q))
    X = TruncatedSimplicialSet([q], [[]], [[]], [partial(_eg_label, G, 0)])
    for n in range(1, bound + 1):
        below, ids = ids, tuple(range(q ** (n + 1)))
        w = [q ** (n - i) for i in range(n + 1)]  # the weight of digit i
        faces = [_runs(below, range(0, q ** n, w[i]), w[i], q) for i in range(n + 1)]
        degens = [_runs(ids, map(add, range(0, q * w[0], w[i]), cycle(range(0, w[i], w[i + 1]))),
                        w[i + 1], 1) for i in range(n)]
        X = X.extended(q ** (n + 1), faces, degens, partial(_eg_label, G, n))
    X._coskeletal = 0
    return X


def eg_cover(G: FiniteGroup, bound: int) -> SimplicialMap:
    """The universal cover ``pi: EG -> BG`` to ``bound``, validated as a
    simplicial map, with BG ``nerve(one_object_groupoid(G), bound)``:
    ``(g_0, ..., g_n) -> (g_0^-1 g_1, ..., g_{n-1}^-1 g_n)``
    (:func:`_eg_projection`).  Its fibres are the orbits of G acting by left
    multiplication, and it is a covering: a simplex of BG lifts uniquely
    through each lift of any of its vertices, so a horn of EG over an
    n-simplex of BG, n >= 1, has exactly one filler.  The projection is read
    off EG's own tables and encoded on BG's layout."""
    B, L = nerve_and_layout(one_object_groupoid(G), bound)
    X = eg_construction(G, bound)
    return SimplicialMap(X, B, _eg_projection(G, L, X))


def _eg_projection(G: FiniteGroup, L: NerveLayout, X: TruncatedSimplicialSet) -> tuple:
    """The projection of EG onto the nerve on ``L``: the nerve of the functor
    ``(g_0, g_1) -> g_0^-1 g_1``, an n-simplex x's image, n >= 2, encoded from
    its parent ``d_n x``'s and its last edge's, the edge ``x mod |G|^2``."""
    table, inverse, edges = G.table, G.inverse, list(range(G.order ** 2))
    pi: list[Sequence[int]] = [(0,) * G.order]
    if X.bound:
        pi.append([table[inverse[t]][s] for t, s in zip(X._faces[1][1], X._faces[1][0])])
    for n in range(2, X.bound + 1):
        pi.append(L.encode(n, pi[n - 1], X._faces[n][n], pi[1], edges * G.order ** (n - 1)))
    return tuple(pi)
