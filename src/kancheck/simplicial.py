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

A set may carry the action of a group on its levels (``_action``), attached
only by constructors: ``eg_construction`` attaches the action of G on EG by
left multiplication (:class:`GroupAction`), and ``product``, and
``diagonal`` of a ``tensor``, the product of the factors' actions
(:class:`ProductAction`).  The horn sweeps of a map over a point check it
on the tables (:func:`checked_orbits`) and then search one horn family per
orbit (see :func:`kancheck.kan._fill_cells`), with the face identities of
each level compared on one simplex per orbit (:func:`require_level_laws`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, groupby
from operator import attrgetter, itemgetter, ne
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .errors import InternalInvariantError, RejectedInput, TruncationError


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


Label = Callable[[int], str]


def _label_table(level: Sequence[str], count: int) -> Label:
    """A level's label table as its label function."""
    if len(level) != count:
        raise RejectedInput("labels must match the simplex counts")
    return tuple(str(s) for s in level).__getitem__


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
    ``_action`` is a group action a constructor attached, or None; equality
    does not read it.
    """

    __slots__ = ("bound", "counts", "_faces", "_degens", "_labels", "_action")

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

        built_faces: list[tuple[tuple[int, ...], ...]] = [()]
        for n in range(1, self.bound + 1):
            per_dim = faces[n]
            if len(per_dim) != n + 1:
                raise RejectedInput(f"dimension {n} needs {n + 1} face tables")
            built_faces.append(
                tuple(
                    _as_table(per_dim[i], self.counts[n], self.counts[n - 1], f"d_{i} at {n}")
                    for i in range(n + 1)
                )
            )
        built_degens: list[tuple[tuple[int, ...], ...]] = []
        for n in range(self.bound):
            per_dim = degeneracies[n]
            if len(per_dim) != n + 1:
                raise RejectedInput(f"dimension {n} needs {n + 1} degeneracy tables")
            built_degens.append(
                tuple(
                    _as_table(per_dim[i], self.counts[n], self.counts[n + 1], f"s_{i} at {n}")
                    for i in range(n + 1)
                )
            )
        built_degens.append(())
        self._faces = tuple(built_faces)
        self._degens = tuple(built_degens)
        self._action: GroupAction | ProductAction | None = None

        if labels is None:
            self._labels = None
        else:
            if len(labels) != self.bound + 1:
                raise RejectedInput("labels must match the simplex counts")
            self._labels = tuple(
                level if callable(level) else _label_table(level, self.counts[n])
                for n, level in enumerate(labels)
            )

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


def _face_face_checks(X: TruncatedSimplicialSet, n: int, ids: Sequence[int] | None = None):
    """The identities ``d_i d_j = d_{j-1} d_i`` (i < j) of level n, as
    :func:`_level_checks` yields them; on the n-simplices ``ids`` only, when
    given."""
    F = X._faces
    if n >= 2:
        tops = F[n] if ids is None else [gather(t, ids) for t in F[n]]
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

    ``validate=True`` checks that it commutes, one column comparison per
    table.  The maps this package builds (to the point, diagonals) are
    natural by construction and pass ``validate=False``: validating them
    would cost the benchmark's ``kan-diagonal-eg`` run about 0.7 ms (some 4%
    of its time to a verdict) and its ``pointwise-eg`` run about 0.7 ms (some
    7%), measured on a 2-core host under CPython 3.11.  A transpose builds
    no maps: it shares the lines of the map it transposes.
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

    def _keys(
        self, m: int, faces: tuple[int, ...], ids: Sequence[int] | None = None
    ) -> Sequence[Key]:
        """Each domain m-simplex w's key ``(f w, d_j w for j in faces)``, the
        image left out unless :meth:`headed`, zipped by :func:`zip_keys`; for
        the simplices ``ids`` only, when given."""
        cols = [self.domain._faces[m][j] for j in faces]
        if self.headed(m):
            cols.insert(0, self.components[m])
        if ids is None:
            return zip_keys(cols, self.domain.counts[m])
        return zip_keys([gather(col, ids) for col in cols], len(ids))

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

    def _build_least(
        self, m: int, faces: tuple[int, ...], ids: Sequence[int] | None = None
    ) -> dict[Key, int]:
        """The least-id map of :meth:`least`, over the ascending ``ids`` only
        when given: then it is not cached, and a search that reads it must
        know that every simplex it looks for is among them."""
        keys = self._keys(m, faces, ids)
        # read from the last id down, a key is left holding its least id
        return dict(zip(reversed(keys), reversed(range(len(keys)) if ids is None else ids)))

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


def require_level_laws(
    f: SimplicialMap, n: int, reps: Sequence[int] | None = None
) -> None:
    """Raise ``RejectedInput`` unless the domain's n-simplices satisfy
    ``d_i d_j = d_{j-1} d_i`` for i < j and, when ``f.headed(n - 1)``, f
    commutes with every ``d_i`` on them; each violation named as the law
    checkers name it, the face identity at its least simplex id.

    These two facts make every filler's row compatible: if ``d_i w = x_i``
    and ``f w = y``, then ``d_i x_j = d_i d_j w = d_{j-1} d_i w = d_{j-1} x_i``
    and ``f x_i = f d_i w = d_i f w = d_i y``.  So a horn sweep checks them
    once per level, and per row only the witness.  Over a point at n - 1
    both sides of ``f d_i = d_i f`` are 0, as :func:`_as_table` range-checked.

    ``reps`` is T_n of a checked action (:func:`checked_orbits`): every
    n-simplex is g t for some t in T_n and a permutation g of each level
    that commutes with every face, so the face identities hold on X_n once
    they hold on T_n, and only T_n is compared.  On a mismatch the whole
    level is compared again, so the message names the least violating id.
    """
    X = f.domain
    if reps is None or any(lhs != rhs for *_, lhs, rhs in _face_face_checks(X, n, reps)):
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
        X, pt, [[0] * X.counts[n] for n in range(X.bound + 1)], validate=False
    )


class GroupAction:
    """A finite group H acting on a set's levels, given by generators.

    ``generators[m][g]`` is generator g's permutation ``x -> g x`` of X_m;
    ``base`` is T_0, meant to meet each orbit of X_0 once.  Nothing is taken
    on trust: :func:`checked_orbits` checks all of it on the tables, and
    works out |H_0| from the generators.
    """

    __slots__ = ("generators", "base")

    def __init__(
        self, generators: tuple[tuple[tuple[int, ...], ...], ...], base: tuple[int, ...]
    ) -> None:
        self.generators, self.base = generators, base


class ProductAction:
    """The action of H_A x H_B on ``A x B``, each factor on its coordinate.

    It holds the factors, not product-level columns.  A factor with no
    action counts as the trivial group, with T_0 all of its X_0.
    """

    __slots__ = ("first", "second")

    def __init__(self, first: TruncatedSimplicialSet, second: TruncatedSimplicialSet) -> None:
        self.first, self.second = first, second


class _Orbits:
    """The orbits of a checked action on X, as a sweep reads them.

    ``order`` is |H_0|.  ``level(m)`` is T_m = v0^{-1}(T_0): the m-simplices
    whose vertex 0 lies in T_0, ascending.  ``over(n, i)`` is the n-simplices
    w with ``d_i w`` in T_{n-1}, ascending.  Vertex 0 is read off a column
    of 0s and 1s per level, gathered through ``d_m`` from the level below.
    """

    def __init__(self, X: TruncatedSimplicialSet, order: int, base: Iterable[int]) -> None:
        self.X, self.order = X, order
        member = [0] * X.counts[0]
        for t in base:
            member[t] = 1
        self._members = [member]

    def _member(self, m: int) -> list[int]:
        """1 where an m-simplex's vertex 0 lies in T_0, else 0."""
        faces = self.X._faces
        while len(self._members) <= m:
            k = len(self._members)
            # vertex 0 of a k-simplex is vertex 0 of its face d_k
            self._members.append(gather(self._members[-1], faces[k][k]))
        return self._members[m]

    def level(self, m: int) -> list[int]:
        return list(compress(range(self.X.counts[m]), self._member(m)))

    def over(self, n: int, i: int) -> list[int]:
        inside = gather(self._member(n - 1), self.X._faces[n][i])
        return list(compress(range(self.X.counts[n]), inside))


class _ProductOrbits:
    """The orbits of a product action, read off its factors' orbits: vertex
    0 and the faces of ``A x B`` act a coordinate at a time, so T_m is
    T_m(A) x T_m(B) and H_0 is H_0(A) x H_0(B)."""

    def __init__(
        self, X: TruncatedSimplicialSet, first: "_Orbits | _ProductOrbits",
        second: "_Orbits | _ProductOrbits",
    ) -> None:
        self.X, self.first, self.second = X, first, second
        self.order = first.order * second.order

    def level(self, m: int) -> list[int]:
        return _pairs(self.first.level(m), self.second.level(m), self.second.X.counts[m])

    def over(self, n: int, i: int) -> list[int]:
        return _pairs(self.first.over(n, i), self.second.over(n, i), self.second.X.counts[n])


def checked_orbits(
    X: TruncatedSimplicialSet, top: int
) -> _Orbits | _ProductOrbits | None:
    """The orbits of X's action on levels 0..top, or None if X has none.

    The action is checked first on the tables it is given on: X's own, or
    each factor's for a product.  Each generator column must be a
    permutation of its level that commutes with every face table there; and,
    with H_0 the group the generators generate on X_0,
    ``H_0 x T_0 -> X_0``, ``(h, t) -> h t``, must be a bijection, so H_0 acts
    freely on X_0 with transversal T_0.  Only constructors attach an
    action, so a check that fails raises ``InternalInvariantError``.
    """
    return None if X._action is None else _orbits(X, top)


def _orbits(X: TruncatedSimplicialSet, top: int) -> _Orbits | _ProductOrbits:
    action = X._action
    if action is None:
        return _Orbits(X, 1, range(X.counts[0]))
    if isinstance(action, ProductAction):
        return _ProductOrbits(X, _orbits(action.first, top), _orbits(action.second, top))
    return _Orbits(X, _free_action_order(X, action, top), action.base)


def _free_action_order(X: TruncatedSimplicialSet, action: GroupAction, top: int) -> int:
    """Check the action on levels 0..top as :func:`checked_orbits` says; return |H_0|."""
    gens = action.generators
    if len(gens) <= top or len({len(level) for level in gens[:top + 1]}) > 1:
        raise InternalInvariantError("the action needs the same generators on every level")
    for m in range(top + 1):
        count = X.counts[m]
        for g, col in enumerate(gens[m]):
            if len(col) != count or set(col) != set(range(count)):
                raise InternalInvariantError(f"generator {g} is not a permutation of level {m}")
            for i, face in enumerate(X._faces[m]):
                wrong = _mismatches(gather(gens[m - 1][g], face), gather(face, col))
                if wrong:
                    raise InternalInvariantError(
                        f"generator {g} does not commute with d_{i} at {Simplex(m, wrong[0])}"
                    )
    count = X.counts[0]
    # a free action has |H_0| <= |X_0|; a larger group fails the bijection
    group = _generated(gens[0], count, count)
    if not set(action.base) <= set(range(count)):
        raise InternalInvariantError("T_0 is not a set of vertices")
    images = [h[t] for h in group for t in action.base]
    if len(images) != count or len(set(images)) != count:
        raise InternalInvariantError("H_0 x T_0 -> X_0 is not a bijection")
    return len(group)


def _generated(
    generators: Sequence[Sequence[int]], size: int, limit: int
) -> list[tuple[int, ...]]:
    """The permutations of range(size) that the generators generate, closed
    under composition with each; the search stops once it has more than
    ``limit``."""
    group = {tuple(range(size))}
    frontier = list(group)
    while frontier and len(group) <= limit:
        found = {tuple(gather(g, p)) for p in frontier for g in generators}
        frontier = [q for q in found if q not in group]
        group.update(frontier)
    return list(group)


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
