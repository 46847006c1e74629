"""Finite groupoids, their nerves, and universal covers.

Nerve strings follow the right-to-left picture ``a_0 <- a_1 <- ... <- a_n``:
an n-simplex is a tuple ``(f_1, ..., f_n)`` with ``f_t : a_t -> a_{t-1}``, so
consecutive arrows satisfy ``src(f_t) == tgt(f_{t+1})``.  Outer faces drop the
outer arrows, inner faces compose adjacent ones, degeneracies insert an
identity arrow.
"""

from __future__ import annotations

from functools import partial
from itertools import product
from typing import Sequence

from .errors import RejectedInput
from .groups import FiniteGroup
from .simplicial import Label, Simplex, TruncatedSimplicialSet


class FiniteGroupoid:
    """Objects and invertible arrows with a partial composition table."""

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
        self.arrow_source = tuple(int(v) for v in arrow_source)
        self.arrow_target = tuple(int(v) for v in arrow_target)
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
        self.identity_arrows = tuple(int(v) for v in identity_arrows)
        if len(self.identity_arrows) != n_obj:
            raise RejectedInput("need one identity arrow per object")
        self._compose = dict(compose)
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
        for g in range(n_arr):
            for h in range(n_arr):
                if self.arrow_source[g] != self.arrow_target[h]:
                    continue
                gh = self.compose(g, h)
                for k in range(n_arr):
                    if self.arrow_source[h] != self.arrow_target[k]:
                        continue
                    if self.compose(gh, k) != self.compose(g, self.compose(h, k)):
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
KeyIndex = list[dict[object, int]]


def nerve_keys(C: FiniteGroupoid, bound: int) -> NerveKeys:
    """The nerve's simplices up to ``bound`` as keys, level by level: objects at
    level 0, then strings ``(g_1, ..., g_n)`` with source(g_i) == target(g_{i+1}),
    in ascending lexicographic order.

    Reads only ``objects`` (its length) and the arrow endpoint tables of ``C``.
    """
    n_arrows = len(C.arrow_source)
    keys: list[tuple[object, ...]] = [tuple(range(len(C.objects)))]
    strings: list[tuple[int, ...]] = [(g,) for g in range(n_arrows)]
    by_target: list[list[int]] = [[] for _ in C.objects]
    for g in range(n_arrows):
        by_target[C.arrow_target[g]].append(g)
    source = C.arrow_source
    for n in range(1, bound + 1):
        if n > 1:
            strings = [s + (g,) for s in strings for g in by_target[source[s[-1]]]]
        keys.append(tuple(strings))
    return tuple(keys)


def key_index(keys: Sequence[Sequence[object]]) -> KeyIndex:
    """Per level, the dict from a key to its id."""
    return [{key: k for k, key in enumerate(level)} for level in keys]


def string_face(C: FiniteGroupoid, n: int, key: object, i: int) -> object:
    """The key of d_i of the nerve simplex ``key`` at level n >= 1."""
    s = key  # type: ignore[assignment]
    if n == 1:
        return C.arrow_source[s[0]] if i == 0 else C.arrow_target[s[0]]
    if i == 0:
        return s[1:]
    if i == n:
        return s[:-1]
    return s[: i - 1] + (C.compose(s[i - 1], s[i]),) + s[i + 1:]


def string_degeneracy(C: FiniteGroupoid, n: int, key: object, i: int) -> object:
    """The key of s_i of the nerve simplex ``key`` at level n: an inserted identity."""
    if n == 0:
        return (C.identity(key),)  # type: ignore[arg-type]
    s = key  # type: ignore[assignment]
    obj = C.arrow_target[s[i]] if i < n else C.arrow_source[s[n - 1]]
    return s[:i] + (C.identity(obj),) + s[i:]


def string_label(C: FiniteGroupoid, level: Sequence[object], n: int, idx: int) -> str:
    """The label of the nerve's n-simplex ``idx`` whose key is ``level[idx]``."""
    key = level[idx]
    if n == 0:
        return C.objects[key]  # type: ignore[index]
    return "|".join(C.arrow_labels[g] for g in key)  # type: ignore[union-attr]


def nerve_set(
    C: FiniteGroupoid, keys: NerveKeys, index: KeyIndex, labels: Sequence[Label]
) -> TruncatedSimplicialSet:
    """The nerve of ``C`` whose n-simplex ids index ``keys[n]``, for keys
    ``nerve_keys(C, bound)`` and their ``key_index``, labelled by ``labels``.

    Reads only the objects, arrow endpoints, ``compose`` and ``identity`` of
    ``C``, so anything with those attributes has a nerve.
    """
    bound = len(keys) - 1
    faces = [[]] + [
        [[index[n - 1][string_face(C, n, key, i)] for key in keys[n]] for i in range(n + 1)]
        for n in range(1, bound + 1)
    ]
    degens = [
        [[index[n + 1][string_degeneracy(C, n, key, i)] for key in keys[n]] for i in range(n + 1)]
        for n in range(bound)
    ] + [[]]
    return TruncatedSimplicialSet([len(level) for level in keys], faces, degens, labels)


def string_labels(C: FiniteGroupoid, keys: NerveKeys) -> list[Label]:
    """Per level of the nerve of ``C``, the function rendering an id's key."""
    return [partial(string_label, C, level, n) for n, level in enumerate(keys)]


def nerve_indexed(C: FiniteGroupoid, bound: int) -> tuple[TruncatedSimplicialSet, NerveKeys]:
    """The nerve together with the composable-string key behind each id."""
    if bound < 0:
        raise RejectedInput("bound must be nonnegative")
    keys = nerve_keys(C, bound)
    return nerve_set(C, keys, key_index(keys), string_labels(C, keys)), keys


def nerve(C: FiniteGroupoid, bound: int) -> TruncatedSimplicialSet:
    """Strings of composable arrows, with composing faces and identity insertions."""
    return nerve_indexed(C, bound)[0]


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
    return TruncatedSimplicialSet(counts, faces, degens, labels)


def eg_simplex(G: FiniteGroup, coords: Sequence[int]) -> Simplex:
    """The simplex of the universal cover holding the given coordinate tuple."""
    if not coords:
        raise RejectedInput("a simplex needs at least one coordinate")
    idx = 0
    for c in coords:
        if not 0 <= c < G.order:
            raise RejectedInput(f"coordinate {c} outside the group")
        idx = idx * G.order + c
    return Simplex(len(coords) - 1, idx)
