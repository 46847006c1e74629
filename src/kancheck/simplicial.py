"""Finite truncated simplicial sets as dense per-dimension tables.

A simplex is identified by its ``(dim, idx)`` pair; labels are metadata only.
All tables are total maps stored as tuples of integers, so structures are
immutable after construction and safe to share between readers.  Every
whole-column read of a table, by the builders and by the horn search alike,
is one call of :func:`gather`, whose per-element loop runs in C.  A map also
caches the horn-search maps it builds from its tables on first use, each
never changed once built: :meth:`SimplicialMap.index` buckets a level by its
key, and :meth:`SimplicialMap.least` gives each key its least id.  A check
that builds its own map drops each of these once no later cell reads it; a
caller's map keeps its maps (see :func:`kancheck.kan._fill_cells`).  A key is a
row of columns zipped into a tuple (:func:`zip_keys`): the image ``f w``,
left out exactly when the codomain level is a point, then the faces.
Buckets and least ids are built by C-level loops (``dict``, ``zip``,
``sorted``, ``groupby``), never a Python loop over the simplices.  The laws
are checked the same way: each simplicial identity, and each square of a
map's naturality, is two gathered columns over a whole level compared by
:func:`_mismatches`.  :func:`require_level_laws` runs the two of them a horn
sweep needs at one level, face identities and naturality under faces, so that
a filler verifies its horn.

A set grows by one level with :meth:`TruncatedSimplicialSet.extended`, which
validates only the new level's tables and shares the rest, so a set grown a
level at a time validates each table once.  A check reads a set a level at a
time through ``stage(n)``: a built set is its own stage, and :class:`Stages`
grows level n only when it is first asked for, so a to-point check builds
nothing past the level it stops at, and a size refusal fires only at a level
the check reaches.  A double nerve's diagonal
(:func:`kancheck.doublegroupoid.diagonal_stages`) and a product
(:func:`kancheck.bisimplicial.product_stages`) are given as stages.

A product, built by ``product(A, B)`` or given as its stages, records its
factors (``_factors``), as a tensor does; a check of it to a point decides it
from its factors' checks (:func:`kancheck.kan._from_factors`), and a caller's
map on it is searched in full (:func:`kancheck.kan.check_kan_fibration`).
A groupoid's nerve records that it is 2-coskeletal (``_coskeletal``), and
EG that it is 0-coskeletal; a check of such a set to a point counts its
cells with c + 2 faces or more, 4 on a nerve and 2 on EG
(:func:`kancheck.kan._check_to_point`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, groupby
from operator import attrgetter, itemgetter, ne
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .errors import RejectedInput, TruncationError


def gather(table: Sequence, ids: Sequence[int]) -> list:
    """The column ``[table[x] for x in ids]`` in one C-level pass; one id or
    none is read directly, as ``itemgetter`` gives a scalar or refuses."""
    if len(ids) > 1:
        return list(itemgetter(*ids)(table))
    return [table[x] for x in ids]


def _pairs(ta: Sequence[int], tb: Sequence[int], width: int) -> list[int]:
    """The table of ``ta`` x ``tb`` on pair ids ``a * width + b``, B minor."""
    return [a * width + b for a in ta for b in tb]


def _mismatches(lhs: list, rhs: list) -> list[int]:
    """The positions where two columns of one length differ, ascending, in
    C-level passes: equal columns, the usual case, are one list compare."""
    if lhs == rhs:
        return []
    return list(compress(range(len(lhs)), map(ne, lhs, rhs)))


class Simplex(NamedTuple):
    dim: int
    idx: int


def _int_tuple(entries: Iterable[int], what: str) -> tuple[int, ...]:
    """``entries`` as a tuple, refused unless each is an int: a float, string
    or bool is bad input, never converted."""
    table = tuple(entries)
    if not set(map(type, table)) <= {int}:
        bad = next(v for v in table if type(v) is not int)
        raise RejectedInput(f"{what}: entry {bad!r} is a {type(bad).__name__}, not an int")
    return table


def _as_table(entries: Sequence[int], size: int, target_size: int, what: str) -> tuple[int, ...]:
    table = _int_tuple(entries, what)
    if len(table) != size:
        raise RejectedInput(f"{what}: expected {size} entries, got {len(table)}")
    if table and (min(table) < 0 or max(table) >= target_size):
        bad = next(v for v in table if not 0 <= v < target_size)
        raise RejectedInput(f"{what}: entry {bad} outside range(0, {target_size})")
    return table


# The size budget, the one limit of every builder: the most entries level
# n's n + 1 face tables may hold.  Each builder calls require_level with a
# level's count just before it allocates the level.  2^24 admits EG(S3) to 7.
MAX_LEVEL_ENTRIES = 1 << 24


def require_level(what: str, n: int, count: int) -> int:
    """``count``, the size of level n, unless its face tables' ``(n + 1) *
    count`` entries would pass ``MAX_LEVEL_ENTRIES``: then ``what`` is
    refused with ``RejectedInput``."""
    entries = (n + 1) * count
    if entries > MAX_LEVEL_ENTRIES:
        raise RejectedInput(
            f"{what} would hold {count} simplices in {entries} face-table entries, "
            f"over the limit of {MAX_LEVEL_ENTRIES}"
        )
    return count


Label = Callable[[int], str]


def _level_label(level: Sequence[str] | Label, count: int) -> Label:
    """A level's label function, or its label table wrapped as one."""
    if callable(level):
        return level
    if len(level) != count:
        raise RejectedInput("labels must match the simplex counts")
    return tuple(str(s) for s in level).__getitem__


def _level_tables(
    tables: Sequence[Sequence[int]], n: int, kind: str, name: str, size: int, target_size: int
) -> tuple[tuple[int, ...], ...]:
    """The n + 1 validated ``kind`` tables ``name_i`` of level n, each of
    ``size`` entries in ``range(target_size)``."""
    if len(tables) != n + 1:
        raise RejectedInput(f"dimension {n} needs {n + 1} {kind} tables")
    return tuple(
        _as_table(table, size, target_size, f"{name}_{i} at {n}")
        for i, table in enumerate(tables)
    )


# a horn-search key: one id, or a tuple of ids
Key = Union[int, tuple[int, ...]]


def zip_keys(cols: Sequence[Sequence[int]], rows: int) -> Sequence[Key]:
    """The key column of ``rows`` rows with the given columns: each row's
    entries zipped into a tuple in C.  One column is its own key, and no
    column keys every row by ``()``.  Distinct rows give distinct keys.  The
    result may be the given column: read it, never change it."""
    if len(cols) == 1:
        return cols[0]
    return list(zip(*cols)) if cols else [()] * rows


class TruncatedSimplicialSet:
    """Simplex tables with face and degeneracy actions up to a dimension bound.

    ``faces[n][i]`` maps n-simplex ids to (n-1)-simplex ids for 1 <= n <= bound,
    0 <= i <= n; ``degeneracies[n][i]`` maps upward for 0 <= n < bound.
    ``labels[n]`` is level n's label function ``idx -> str``, or a table of
    its labels, which is wrapped as one; labels are rendered only when read.
    ``_factors`` is ``(A, B)`` for a set built by ``product(A, B)``, else
    None.  ``_coskeletal`` is c for a set its builder knows to be the
    truncation of a c-coskeletal set (a groupoid's nerve, 2; EG, 0), else
    None: a check over a point counts its cells from c + 2 faces up instead
    of searching them (:func:`kancheck.kan._fill_cells`).  Equality reads
    neither.  :meth:`extended` adds a level, validating only its tables.
    """

    __slots__ = (
        "bound", "counts", "_faces", "_degens", "_labels", "_factors", "_coskeletal",
    )

    def __init__(
        self,
        counts: Sequence[int],
        faces: Sequence[Sequence[Sequence[int]]],
        degeneracies: Sequence[Sequence[Sequence[int]]],
        labels: Sequence[Sequence[str] | Label] | None = None,
    ) -> None:
        if not counts:
            raise RejectedInput("need at least the 0-dimensional level")
        self.counts: tuple[int, ...] = _int_tuple(counts, "counts")
        if any(c < 0 for c in self.counts):
            raise RejectedInput("simplex counts must be nonnegative")
        self.bound: int = len(self.counts) - 1
        if len(faces) != self.bound + 1 or len(degeneracies) != self.bound + 1:
            raise RejectedInput("face/degeneracy tables must cover every dimension")
        if len(faces[0]) or len(degeneracies[self.bound]):
            raise RejectedInput(
                "dimension 0 takes no face tables and the bound no degeneracy tables"
            )

        self._faces = ((),) + tuple(
            _level_tables(faces[n], n, "face", "d", self.counts[n], self.counts[n - 1])
            for n in range(1, self.bound + 1)
        )
        self._degens = tuple(
            _level_tables(degeneracies[n], n, "degeneracy", "s", self.counts[n], self.counts[n + 1])
            for n in range(self.bound)
        ) + ((),)
        self._factors: tuple[TruncatedSimplicialSet, TruncatedSimplicialSet] | None = None
        self._coskeletal: int | None = None

        if labels is None:
            self._labels = None
        else:
            if len(labels) != self.bound + 1:
                raise RejectedInput("labels must match the simplex counts")
            self._labels = tuple(
                _level_label(level, self.counts[n]) for n, level in enumerate(labels)
            )

    def extended(
        self,
        count: int,
        faces: Sequence[Sequence[int]],
        degeneracies: Sequence[Sequence[int]],
        label: Sequence[str] | Label | None = None,
    ) -> "TruncatedSimplicialSet":
        """This set with level ``n = bound + 1`` added: ``count`` simplices,
        their n + 1 ``faces`` and the n ``degeneracies`` from level n - 1
        into them, and ``label`` (None exactly when this set is unlabelled).
        Only the new tables are validated, as the constructor validates them;
        the others are shared.  The new set records no factors and no
        coskeleton."""
        n = self.bound + 1
        if (label is None) != (self._labels is None):
            raise RejectedInput("labels must match the simplex counts")
        X = TruncatedSimplicialSet.__new__(TruncatedSimplicialSet)
        X.counts = self.counts + _int_tuple((count,), "counts")
        if count < 0:
            raise RejectedInput("simplex counts must be nonnegative")
        X.bound = n
        X._faces = self._faces + (
            _level_tables(faces, n, "face", "d", count, self.counts[n - 1]),
        )
        X._degens = self._degens[:-1] + (
            _level_tables(degeneracies, n - 1, "degeneracy", "s", self.counts[n - 1], count),
            (),
        )
        X._labels = None if label is None else self._labels + (_level_label(label, count),)
        X._factors = X._coskeletal = None
        return X

    def stage(self, n: int) -> "TruncatedSimplicialSet":
        """The set a check reads level n on: a built set is its own stage."""
        return self

    def size(self, n: int) -> int:
        if not 0 <= n <= self.bound:
            raise TruncationError(f"dimension {n} outside bound {self.bound}")
        return self.counts[n]

    def _check(self, x: Simplex) -> None:
        if not 0 <= x.dim <= self.bound:
            raise TruncationError(f"simplex dimension {x.dim} outside bound {self.bound}")
        if not 0 <= x.idx < self.counts[x.dim]:
            raise RejectedInput(f"no simplex {x} in this set")

    def face(self, i: int, x: Simplex) -> Simplex:
        self._check(x)
        if x.dim < 1:
            raise RejectedInput("0-simplices have no faces")
        if not 0 <= i <= x.dim:
            raise RejectedInput(f"face index {i} invalid at dimension {x.dim}")
        return Simplex(x.dim - 1, self._faces[x.dim][i][x.idx])

    def degeneracy(self, i: int, x: Simplex) -> Simplex:
        self._check(x)
        if x.dim >= self.bound:
            raise TruncationError(
                f"degeneracy would leave the bound {self.bound} from dimension {x.dim}"
            )
        if not 0 <= i <= x.dim:
            raise RejectedInput(f"degeneracy index {i} invalid at dimension {x.dim}")
        return Simplex(x.dim + 1, self._degens[x.dim][i][x.idx])

    def label(self, x: Simplex) -> str:
        self._check(x)
        if self._labels is None:
            return f"{x.dim}#{x.idx}"
        return self._labels[x.dim](x.idx)

    def labels_at(self, n: int) -> list[str] | None:
        """Every label of level n in id order, or None for an unlabelled set."""
        if self._labels is None:
            return None
        return list(map(self._labels[n], range(self.counts[n])))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSimplicialSet):
            return NotImplemented
        return (
            self.counts == other.counts
            and self._faces == other._faces
            and self._degens == other._degens
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TruncatedSimplicialSet(bound={self.bound}, counts={self.counts})"


class Stages:
    """A set built a level at a time, for a check that reads it so (see
    :func:`kancheck.kan.check_kan_to_point`).  ``stage(n)`` is the set up to
    level n: stage 0 is ``first``, stage n is ``grow(stage n - 1)``, grown
    only when level n is first asked for and kept, so each level is built
    once.  ``_factors`` is ``(A, B)`` for the stages of ``A x B``, read as on
    a set built by ``product(A, B)``, else None."""

    __slots__ = ("bound", "_grow", "_stages", "_factors")

    def __init__(self, first: TruncatedSimplicialSet, grow: Callable, bound: int,
                 factors: tuple | None = None) -> None:
        self.bound, self._grow, self._stages, self._factors = bound, grow, [first], factors

    def stage(self, n: int) -> TruncatedSimplicialSet:
        if not 0 <= n <= self.bound:
            raise TruncationError(f"stage {n} outside bound {self.bound}")
        while len(self._stages) <= n:
            self._stages.append(self._grow(self._stages[-1]))
        return self._stages[n]


def point(bound: int) -> TruncatedSimplicialSet:
    """The terminal simplicial set truncated at the given bound."""
    counts = [1] * (bound + 1)
    faces = [[]] + [[[0]] * (n + 1) for n in range(1, bound + 1)]
    degens = [[[0]] * (n + 1) for n in range(bound)] + [[]]
    labels = [["pt"]] * (bound + 1)
    return TruncatedSimplicialSet(counts, faces, degens, labels)


@dataclass(frozen=True)
class IdentityViolation:
    identity: str
    n: int
    i: int
    j: int
    simplex: int
    lhs: Simplex
    rhs: Simplex

    def describe(self, X: TruncatedSimplicialSet) -> str:
        """The violation in words, its two sides by their labels in X."""
        return (
            f"{self.identity} at n={self.n}, i={self.i}, j={self.j}, simplex {self.simplex}: "
            f"{X.label(self.lhs)} != {X.label(self.rhs)}"
        )


@dataclass(frozen=True)
class IdentityReport:
    violations: tuple[IdentityViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _face_face_checks(X: TruncatedSimplicialSet, n: int):
    """The identities ``d_i d_j = d_{j-1} d_i`` (i < j) of level n, as
    :func:`_level_checks` yields them."""
    F = X._faces
    if n >= 2:
        tops = F[n]
        for j in range(n + 1):
            for i in range(j):
                yield ("face-face", i, j, n - 2,
                       gather(F[n - 1][i], tops[j]), gather(F[n - 1][j - 1], tops[i]))


def _level_checks(X: TruncatedSimplicialSet, n: int):
    """Each identity of level n as ``(name, i, j, dim, lhs, rhs)``: two
    columns over the n-simplices that must agree, with values in dimension
    ``dim``, generated in the order a per-simplex loop checks them."""
    F, D = X._faces, X._degens
    yield from _face_face_checks(X, n)
    if n + 2 <= X.bound:
        for i in range(n + 1):
            for j in range(i, n + 1):
                yield ("degen-degen", i, j, n + 2,
                       gather(D[n + 1][i], D[n][j]), gather(D[n + 1][j + 1], D[n][i]))
    if n + 1 <= X.bound:
        ids = list(range(X.counts[n]))
        for j in range(n + 1):
            for i in range(n + 2):
                got = gather(F[n + 1][i], D[n][j])
                if i < j:
                    yield "face-degen-under", i, j, n, got, gather(D[n - 1][j - 1], F[n][i])
                elif i <= j + 1:
                    yield "face-degen-cancel", i, j, n, got, ids
                else:
                    yield "face-degen-over", i, j, n, got, gather(D[n - 1][j], F[n][i - 1])


def validate_simplicial_identities(X: TruncatedSimplicialSet) -> IdentityReport:
    """Exhaustively check every simplicial identity that stays within bound,
    each as one comparison of two gathered columns over a whole level.

    Violations come level by level, each level's by simplex id and, for one
    simplex, in the order of :func:`_level_checks`; then the degeneracies
    that are not injective.
    """
    bad: list[IdentityViolation] = []
    for n in range(X.bound + 1):
        level = [
            IdentityViolation(name, n, i, j, idx, Simplex(dim, lhs[idx]), Simplex(dim, rhs[idx]))
            for name, i, j, dim, lhs, rhs in _level_checks(X, n)
            for idx in _mismatches(lhs, rhs)
        ]
        level.sort(key=attrgetter("simplex"))  # stable: keeps each simplex's check order
        bad += level
    for n in range(X.bound):
        for i, t in enumerate(X._degens[n]):
            if len(set(t)) == len(t):
                continue
            seen: dict[int, int] = {}
            for idx, v in enumerate(t):
                if v in seen:
                    bad.append(IdentityViolation(
                        "degeneracy-not-injective", n, i, i, idx,
                        Simplex(n + 1, v), Simplex(n, seen[v]),
                    ))
                else:
                    seen[v] = idx
    return IdentityReport(tuple(bad))


class SimplicialMap:
    """A dimensionwise map commuting with all face and degeneracy tables.

    ``validate=True`` checks each component's entries and length, and that
    it commutes, one column comparison per table.  The maps this package
    builds (to the point, diagonals) are valid by construction and pass
    ``validate=False``, which takes tuple components as given: validating them
    would cost the benchmark's ``kan-diagonal-eg`` run about 0.7 ms (some 4%
    of its time to a verdict), measured on a 2-core host under CPython 3.11.
    Its ``pointwise-eg`` run, which sweeps on its factor and so builds one
    map, of EG(Z2) to dim 3, would pay about 0.06 ms (some 1%).  A
    transpose builds no maps: it shares the lines of the map it transposes.
    """

    __slots__ = ("domain", "codomain", "components", "_indexes", "_leasts")

    def __init__(
        self,
        domain: TruncatedSimplicialSet,
        codomain: TruncatedSimplicialSet,
        components: Sequence[Sequence[int]],
        validate: bool = True,
    ) -> None:
        if domain.bound != codomain.bound:
            raise RejectedInput("domain and codomain must share the same bound")
        self.domain = domain
        self.codomain = codomain
        self.components = tuple(
            _as_table(components[n], domain.counts[n], codomain.counts[n], f"component {n}")
            if validate else tuple(components[n])
            for n in range(domain.bound + 1)
        )
        self._indexes: dict[tuple[int, tuple[int, ...]], dict[Key, tuple[int, ...]]] = {}
        self._leasts: dict[tuple[int, tuple[int, ...]], dict[Key, int]] = {}
        if validate:
            self._validate_naturality()

    def _validate_naturality(self) -> None:
        """Raise at the least ``(n, idx, i)`` where ``f d_i != d_i f``, then
        likewise for ``s_i``."""
        for name in ("d", "s"):
            for n in range(self.domain.bound + 1):
                self._require_natural(name, n)

    def _require_natural(self, name: str, n: int) -> None:
        """Raise at the least ``(idx, i)`` where f does not commute with the
        operator ``name_i`` ("d" or "s") on the domain n-simplices: each i
        is one column comparison."""
        dom, cod, f = self.domain, self.codomain, self.components
        step, dom_tables, cod_tables = (
            (-1, dom._faces, cod._faces) if name == "d" else (1, dom._degens, cod._degens)
        )
        firsts = [
            (wrong[0], i) for i, (t, u) in enumerate(zip(dom_tables[n], cod_tables[n]))
            if (wrong := _mismatches(gather(f[n + step], t), gather(u, f[n])))
        ]
        if firsts:
            idx, i = min(firsts)
            raise RejectedInput(f"map does not commute with {name}_{i} at {Simplex(n, idx)}")

    def headed(self, m: int) -> bool:
        """Whether the keys at level m start with the image ``f w``: exactly
        when codomain level m has more than one simplex.  At a point every
        image is the same, so it is left out of the index and its lookups."""
        return self.codomain.counts[m] > 1

    def _keys(self, m: int, faces: tuple[int, ...]) -> Sequence[Key]:
        """Each domain m-simplex w's key ``(f w, d_j w for j in faces)``, the
        image left out unless :meth:`headed`, zipped by :func:`zip_keys`."""
        cols = [self.domain._faces[m][j] for j in faces]
        if self.headed(m):
            cols.insert(0, self.components[m])
        return zip_keys(cols, self.domain.counts[m])

    def index(self, m: int, faces: tuple[int, ...]) -> dict[Key, tuple[int, ...]]:
        """The domain m-simplices bucketed by their keys (:meth:`_keys`): key
        to its ids, ascending; a key that no simplex has is absent.

        Built in full the first time it is asked for and kept with the map, so
        every search over the same (m, faces) shares one index, until a check
        that built the map itself drops it: after the last cell of level
        m + 1, the only cells that read it.
        """
        found = self._indexes.get((m, faces))
        if found is None:
            found = self._indexes[m, faces] = self._build_index(m, faces)
        return found

    def _build_index(self, m: int, faces: tuple[int, ...]) -> dict[Key, tuple[int, ...]]:
        keys = self._keys(m, faces)
        count = len(keys)
        buckets = dict(zip(keys, zip(range(count))))
        if len(buckets) < count:
            # a stable sort keeps each key's ids ascending
            order = sorted(range(count), key=keys.__getitem__)
            buckets = {key: tuple(ids) for key, ids in groupby(order, keys.__getitem__)}
        return buckets

    def least(self, m: int, faces: tuple[int, ...]) -> dict[Key, int]:
        """Each key of :meth:`index` to the least id of its bucket, the one
        id a fill reads.  Cached with the map like the index, and built
        without it; a check that built the map itself drops it once the one
        cell that reads it, (m, faces), is counted."""
        found = self._leasts.get((m, faces))
        if found is None:
            found = self._leasts[m, faces] = self._build_least(m, faces)
        return found

    def _build_least(self, m: int, faces: tuple[int, ...]) -> dict[Key, int]:
        keys = self._keys(m, faces)
        # read from the last id down, a key is left holding its least id
        return dict(zip(reversed(keys), reversed(range(len(keys)))))

    def fiber(self, n: int, target_idx: int) -> tuple[int, ...]:
        """Ids of domain n-simplices mapping to the given codomain id, ascending."""
        if not 0 <= target_idx < self.codomain.counts[n]:
            return ()
        return self.index(n, ()).get(target_idx if self.headed(n) else (), ())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialMap):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.components == other.components
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SimplicialMap(bound={self.domain.bound})"


def require_level_laws(f: SimplicialMap, n: int) -> None:
    """Raise ``RejectedInput`` unless the domain's n-simplices satisfy
    ``d_i d_j = d_{j-1} d_i`` for i < j and, when ``f.headed(n - 1)``, f
    commutes with every ``d_i`` on them; each violation named as the law
    checkers name it, the face identity at its least simplex id.

    These two facts make every filler's row compatible: if ``d_i w = x_i``
    and ``f w = y``, then ``d_i x_j = d_i d_j w = d_{j-1} d_i w = d_{j-1} x_i``
    and ``f x_i = f d_i w = d_i f w = d_i y``.  So a horn sweep checks them
    once per level, and per row only the witness.  Over a point at n - 1
    both sides of ``f d_i = d_i f`` are 0, the one simplex there.
    """
    X = f.domain
    firsts = [
        (wrong[0], order, IdentityViolation(
            name, n, i, j, wrong[0], Simplex(dim, lhs[wrong[0]]), Simplex(dim, rhs[wrong[0]])
        ))
        for order, (name, i, j, dim, lhs, rhs) in enumerate(_face_face_checks(X, n))
        if (wrong := _mismatches(lhs, rhs))
    ]
    if firsts:
        raise RejectedInput(
            f"domain breaks the simplicial identities: {min(firsts)[2].describe(X)}"
        )
    if f.headed(n - 1):
        f._require_natural("d", n)


def to_point_map(X: TruncatedSimplicialSet) -> SimplicialMap:
    """The unique map from X to the one-point simplicial set of the same bound."""
    pt = point(X.bound)
    return SimplicialMap(
        X, pt, [(0,) * X.counts[n] for n in range(X.bound + 1)], validate=False
    )


class _UnionFind:
    __slots__ = ("parent", "rank")

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))
        self.rank = [0] * size

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1


def pi0(X: TruncatedSimplicialSet) -> tuple[tuple[int, ...], ...]:
    """Components of X_0 under d_0 x ~ d_1 x over the 1-simplices.

    Returns the partition as tuples of vertex ids, each sorted, ordered by
    least member.  Requires bound >= 1 so that the edges are visible.
    """
    if X.bound < 1:
        raise TruncationError("pi0 needs the 1-simplices; bound must be at least 1")
    uf = _UnionFind(X.size(0))
    for a, b in zip(*X._faces[1]):
        uf.union(a, b)
    groups: dict[int, list[int]] = {}
    for v in range(X.size(0)):
        groups.setdefault(uf.find(v), []).append(v)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))
