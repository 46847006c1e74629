"""Compatible families, horn enumeration, fillers and Kan checks.

All searches take simplices in ascending id order, so every certificate is
reproducible.  Both the fill and the enumeration are lookups under the key
``(f w, d_j w for j in J)`` of an m-simplex w, in maps built once per map,
dimension m and face set J.  The image ``f w`` is left out of the key exactly
when codomain level m is a point (:meth:`SimplicialMap.headed`), so the maps
and their lookups agree.  :meth:`SimplicialMap.index` buckets X_m by key, each
bucket holding exactly the simplices with those faces over that image,
ascending.  A fill is one lookup in :meth:`SimplicialMap.least`, which maps
each key to its bucket's least id: the filler a scan of the whole table would
find first.  Horn families are enumerated face by face, each face drawn from
the bucket that already satisfies every equation with the faces chosen
before it, never from the raw product of face choices.

One engine searches, on raw table ids, a cell at a time.  A block holds up to
``BLOCK_ROWS`` families of one (n, I) cell as id columns: the targets, then
one column per face.  ``_blocks`` grows the blocks face by face in the order a
depth-first search would find the families, ``_fillers`` fills a block of full
horns with one lookup per row, and ``_partial_fillers`` fills a block of
partial horns, running its reduction once for the whole block.  The bound
keeps a block's memory fixed however large its cell.  Nothing is taken on
trust from the index keys: every filler is re-checked on the tables, a
column at a time (``_check_witnesses``), and a row that fills is verified by
its filler.  Its face equations follow from the filler's and from two laws of
the level, ``d_i d_j = d_{j-1} d_i`` and ``f d_i = d_i f``, which the sweeps
check once per level (:func:`require_level_laws`), not once per row.  Only a
block with a row that does not fill has every row's equations evaluated
(``_all_compatible``).

A check that builds its own map (:func:`check_kan_to_point`,
:func:`check_trivial_fibration_to_point`) drops each map once no later cell
reads it, so it holds one cell's least-id map and one level's indexes at a
time; a caller's map keeps its maps (:func:`check_kan_fibration`), as the
pointwise sweep reads the diagonal's least-id maps after its Kan check.

Every Kan or trivial-fibration check of a map over a point, a caller's map
included, also searches one horn family per orbit of a group action the
domain carries (McKay, "Isomorph-free exhaustive generation", 1998); over a
point ``f h = f`` for every h, so the action maps horns of f onto horns of
f.  The action is checked on the tables first: it permutes each level, commutes
with every face, and its group H_0 acts on X_0 freely with transversal T_0.
A cell then searches only the families whose first face lies in
T_{n-1}, the simplices whose vertex 0 is in T_0, and counts |H_0| families
for each.  A lift of each h in H_0 to every level maps these
representatives bijectively onto the families whose first face has its
vertex 0 in h T_0, and fillers onto fillers, so the counts are exact; the
first cell where a representative does not fill is searched again in full,
so its counts and certificate are the full search's (see
:func:`_fill_cells`).  The level's face identities are compared on T_n
alone.  A domain without an action, or a map whose codomain is not a point,
is searched in full.

Columns are read by the C-level ``gather``, key columns are zipped into
tuples by ``zip_keys`` (one column is its own key), and buckets and fillers
are looked up with ``map``.  A level at which every row draws exactly one
face keeps its rows as they are.

The object API is the same engine on a block of one
(``is_compatible``, ``brute_force_fill``, ``fill_partial_horn``) or over its
blocks (``iter_compatible_families``).  The Kan and trivial-fibration sweeps
count on blocks and build objects only for the first family that does not
fill; the pointwise sweep builds none, since a partial diagonal horn that
does not fill there is a broken invariant.  So ``_partial_fillers`` returns
only each row's filler and the candidates it examined, and keeps no record of
where a fill stopped.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Iterator, Mapping, Sequence

from .errors import InternalInvariantError, RejectedInput
from .simplicial import (
    Simplex,
    SimplicialMap,
    TruncatedSimplicialSet,
    checked_orbits,
    gather,
    require_level_laws,
    to_point_map,
    zip_keys,
)


# A block is up to BLOCK_ROWS families of one (n, I) cell as id columns: the
# targets ``ys``, then ``xs[t]``, the faces at ``I[t]``.  Row r is the family
# ``(ys[r], xs[0][r], xs[1][r], ...)``.
Block = tuple[list[int], list[list[int]]]

BLOCK_ROWS = 16384


@dataclass(frozen=True)
class CompatibleFamily:
    """The data (I, {x_i}, y) of a family to fill against a simplicial map.

    ``faces[t]`` is the face attached to ``index_set[t]``.  Construction checks
    dimensions and ranges; use :func:`is_compatible` for the face equations.
    """

    f: SimplicialMap
    n: int
    index_set: tuple[int, ...]
    faces: tuple[Simplex, ...]
    target: Simplex

    def __post_init__(self) -> None:
        if self.n < 1:
            raise RejectedInput("ambient dimension must be at least 1")
        if self.n > self.f.domain.bound:
            raise RejectedInput(
                f"ambient dimension {self.n} outside bound {self.f.domain.bound}"
            )
        if list(self.index_set) != sorted(set(self.index_set)):
            raise RejectedInput("index set must be strictly increasing")
        if self.index_set and not 0 <= self.index_set[0] <= self.index_set[-1] <= self.n:
            raise RejectedInput(f"index set must lie inside [0, {self.n}]")
        if len(self.faces) != len(self.index_set):
            raise RejectedInput("need exactly one face per index")
        for x in self.faces:
            if x.dim != self.n - 1:
                raise RejectedInput(f"face {x} must have dimension {self.n - 1}")
            if not 0 <= x.idx < self.f.domain.counts[x.dim]:
                raise RejectedInput(f"face {x} not in the domain")
        if self.target.dim != self.n:
            raise RejectedInput(f"target {self.target} must have dimension {self.n}")
        if not 0 <= self.target.idx < self.f.codomain.counts[self.n]:
            raise RejectedInput(f"target {self.target} not in the codomain")

    @classmethod
    def from_mapping(
        cls,
        f: SimplicialMap,
        n: int,
        faces: Mapping[int, Simplex],
        target: Simplex,
    ) -> "CompatibleFamily":
        indices = tuple(sorted(faces))
        return cls(f, n, indices, tuple(faces[i] for i in indices), target)

    @classmethod
    def of_ids(
        cls, f: SimplicialMap, n: int, indices: Sequence[int], faces: Sequence[int], y: int
    ) -> "CompatibleFamily":
        """The family with raw face ids ``faces`` at ``indices`` and target id y."""
        return cls(
            f, n, tuple(indices), tuple(Simplex(n - 1, x) for x in faces), Simplex(n, y)
        )

    @property
    def ids(self) -> tuple[int, ...]:
        """The raw ids of the faces, in index-set order."""
        return tuple(x.idx for x in self.faces)

    def face(self, i: int) -> Simplex:
        return self.faces[self.index_set.index(i)]

    def items(self) -> tuple[tuple[int, Simplex], ...]:
        return tuple(zip(self.index_set, self.faces))

    def block(self) -> Block:
        """The family as a block of one row."""
        return [self.target.idx], [[x.idx] for x in self.faces]


def _all_compatible(
    f: SimplicialMap, n: int, indices: Sequence[int], ys: list[int], xs: list[list[int]]
) -> bool:
    """The face equations of every row of a block, a column at a time:
    f x_i == d_i y, and d_i x_j == d_{j-1} x_i for i < j in I.  Over a point
    at n - 1 both sides of f x_i == d_i y are 0, so it is not read."""
    if f.headed(n - 1):
        component, target_faces = f.components[n - 1], f.codomain._faces[n]
        for i, x in zip(indices, xs):
            if gather(component, x) != gather(target_faces[i], ys):
                return False
    if n >= 2:
        tables = f.domain._faces[n - 1]
        for a, (i, xi) in enumerate(zip(indices, xs)):
            for j, xj in zip(indices[a + 1:], xs[a + 1:]):
                if gather(tables[i], xj) != gather(tables[j - 1], xi):
                    return False
    return True


def is_compatible(family: CompatibleFamily) -> bool:
    """Check d_i x_j == d_{j-1} x_i for i < j in I, and f x_i == d_i y."""
    return _all_compatible(family.f, family.n, family.index_set, *family.block())


def _check_witnesses(
    f: SimplicialMap, n: int, indices: Sequence[int], ys: list[int], xs: list[list[int]],
    ws: list[int],
) -> None:
    """Raise unless each n-simplex ``ws[r]`` has the faces of row r and maps
    to ``ys[r]``.  Over a point at n every image is ``ys[r]`` = 0, so the
    image is not read."""
    tables = f.domain._faces[n]
    for i, x in zip(indices, xs):
        if gather(tables[i], ws) != x:
            raise InternalInvariantError(f"witness face d_{i} mismatch")
    if f.headed(n) and gather(f.components[n], ws) != ys:
        raise InternalInvariantError("witness does not map to the target")


@dataclass(frozen=True)
class FillCertificate:
    """Outcome of a fill search; a witness is re-verified on construction."""

    family: CompatibleFamily
    witness: Simplex | None
    candidates_examined: int

    def __post_init__(self) -> None:
        if self.witness is not None:
            fam = self.family
            if self.witness.dim != fam.n:
                raise InternalInvariantError("witness has the wrong dimension")
            if not 0 <= self.witness.idx < fam.f.domain.counts[fam.n]:
                raise InternalInvariantError(f"witness {self.witness} is not in the domain")
            _check_witnesses(fam.f, fam.n, fam.index_set, *fam.block(), [self.witness.idx])

    @property
    def filled(self) -> bool:
        return self.witness is not None


def _fillers(
    f: SimplicialMap, n: int, indices: tuple[int, ...], ys: list[int], xs: list[list[int]],
    least: dict | None = None,
) -> list[int | None]:
    """Each row's least-id n-simplex with faces x_i at I that maps to y, or None.

    One lookup per row in the least-id map of X_n by ``(f w, d_i w for i in
    I)`` (:meth:`SimplicialMap.least`, or ``least`` when given), under the
    key ``(y, x_i for i in I)``: the least id of the fillers is the first
    filler a scan of X_n meets.
    """
    keys = zip_keys([ys, *xs] if f.headed(n) else xs, len(ys))
    return list(map((f.least(n, indices) if least is None else least).get, keys))


def brute_force_fill(family: CompatibleFamily) -> FillCertificate:
    """The least-id filler of a family, or the proof that none exists.

    ``candidates_examined`` is defined as the count a scan of all of X_n in
    ascending id order would examine: ``witness.idx + 1``, or |X_n| when
    nothing fills.  It is a definition, not the work done: the search itself
    is one index lookup (see :func:`_fillers`).
    """
    if not is_compatible(family):
        raise RejectedInput("family is not compatible; nothing to fill")
    f, n = family.f, family.n
    [w] = _fillers(f, n, family.index_set, *family.block())
    if w is None:
        return FillCertificate(family, None, f.domain.size(n))
    return FillCertificate(family, Simplex(n, w), w + 1)


def _blocks(
    f: SimplicialMap, n: int, indices: tuple[int, ...], firsts: Sequence[int] | None = None
) -> Iterator[Block]:
    """Every f-compatible family over I, in blocks of at most BLOCK_ROWS rows,
    in certificate order: targets ascending, then faces by backtracking.

    A block grows face by face.  Face ``t`` of a row is drawn, in ascending id
    order, from the index of X_{n-1} by ``(f x, d_{i_s} x for s < t)`` under the
    key ``(d_{i_t} y, d_{i_t - 1} x_s for s < t)``: its bucket holds exactly the
    candidates that satisfy ``f x_t == d_{i_t} y`` and every pairwise equation
    with the faces already chosen, so no candidate is tested.  Each row gives
    way to one child per id of its bucket, in bucket order, so the rows come
    in the order of a depth-first search; children past BLOCK_ROWS go to the
    next block.  At n = 1 there are no pairwise equations and every face is
    drawn from an f-fiber.  Over a point, ``firsts`` (ascending ids of
    X_{n-1}) replaces face 0's bucket, so only the families whose face 0 is
    among them are enumerated, in the same order.
    """
    X, Y = f.domain, f.codomain
    # d_{i_t} y: the head of face t's key, read only if the keys have one
    targets = [Y._faces[n][i] for i in indices] if f.headed(n - 1) else None
    pools = [
        {(): firsts} if t == 0 and firsts is not None
        else f.index(n - 1, indices[:t] if n >= 2 else ())
        for t in range(len(indices))
    ]
    # d_{i_t - 1}: the chosen x_s's entries of face t's key (read for t >= 1)
    shifted = [X._faces[n - 1][i - 1] for i in indices] if n >= 2 else []
    count = Y.counts[n]
    for start in range(0, count, BLOCK_ROWS):
        rows = list(range(start, min(start + BLOCK_ROWS, count)))
        yield from _grow(pools, shifted, targets, 0, rows, [])


def _grow(
    pools: list[Mapping], shifted: list[Sequence[int]], targets: list[Sequence[int]] | None,
    t: int, ys: list[int], xs: list[list[int]],
) -> Iterator[Block]:
    """The blocks that the rows ``(ys, xs)``, faces 0..t-1 chosen, grow
    into (see :func:`_blocks`).  A module-level generator, so that no
    closure and its cell's maps outlive the cell in a reference cycle."""
    if t == len(pools):
        yield ys, xs
        return
    cols = [gather(shifted[t], x) for x in xs] if shifted else []
    if targets is not None:
        cols.insert(0, gather(targets[t], ys))
    keys = zip_keys(cols, len(ys))
    buckets = list(map(pools[t].get, keys, repeat(())))
    del keys, cols  # not held while the rows below grow
    sizes = list(map(len, buckets))
    if sizes.count(1) == len(ys):
        # one child per row: the parents are the identity, so the rows
        # stand as they are and only the new face is read off
        xs = xs + [list(chain.from_iterable(buckets))]
        yield from _grow(pools, shifted, targets, t + 1, ys, xs)
        return
    # the parent row of each child, and the children, in search order
    parents = chain.from_iterable(map(repeat, range(len(ys)), sizes))
    children = chain.from_iterable(buckets)
    while at := list(islice(parents, BLOCK_ROWS)):
        grown = [gather(x, at) for x in xs]
        grown.append(list(islice(children, BLOCK_ROWS)))
        yield from _grow(pools, shifted, targets, t + 1, gather(ys, at), grown)


def iter_compatible_families(
    f: SimplicialMap, n: int, index_set: tuple[int, ...]
) -> Iterator[CompatibleFamily]:
    """All f-compatible families for a fixed index set, in certificate order.

    Builds one :class:`CompatibleFamily` for each row of the blocks the id
    engine ``_blocks`` enumerates.
    """
    if n < 1 or n > f.domain.bound:
        raise RejectedInput(f"ambient dimension {n} outside bound {f.domain.bound}")
    indices = tuple(sorted(set(index_set)))
    if indices and not 0 <= indices[0] <= indices[-1] <= n:
        raise RejectedInput(f"index set must lie inside [0, {n}]")
    for ys, xs in _blocks(f, n, indices):
        for y, *faces in zip(ys, *xs):
            yield CompatibleFamily.of_ids(f, n, indices, faces, y)


@dataclass(frozen=True)
class HornCellStats:
    n: int
    k: int
    families: int
    filled: int


@dataclass(frozen=True)
class FibrationReport:
    """Result of a horn or boundary sweep, with the first failure if any."""

    kind: str
    max_dim: int
    cells: tuple[HornCellStats, ...]
    failure: FillCertificate | None
    base_point_missing: bool = False

    @property
    def passed(self) -> bool:
        return self.failure is None and not self.base_point_missing

    @property
    def families_checked(self) -> int:
        return sum(c.families for c in self.cells)


def _require_max_dim(bound: int, max_dim: int) -> None:
    if max_dim < 1:
        raise RejectedInput("max_dim must be at least 1")
    if bound < max_dim:
        raise RejectedInput(f"bound {bound} is smaller than max_dim {max_dim}")


def _count_cell(
    f: SimplicialMap, n: int, indices: tuple[int, ...],
    firsts: Sequence[int] | None = None, least: dict | None = None,
) -> tuple[int, tuple[int, list[int]] | None]:
    """Fill the families of cell (n, I) in order, on blocks of raw ids, until
    one does not fill: ``(families, None)`` when all fill, else the count
    before it and its ``(y, faces)``.  ``firsts`` and ``least`` restrict the
    search as :func:`_blocks` and :func:`_fillers` say.

    A row that fills is verified by its witness, checked on the tables; a
    block with a row that does not fill has every row's equations checked.
    """
    families = 0
    for ys, xs in _blocks(f, n, indices, firsts):
        ws = _fillers(f, n, indices, ys, xs, least)
        if None in ws:
            if not _all_compatible(f, n, indices, ys, xs):
                raise InternalInvariantError("enumerated family is not compatible")
            r = ws.index(None)
            _check_witnesses(f, n, indices, ys[:r], [x[:r] for x in xs], ws[:r])
            return families + r, (ys[r], [x[r] for x in xs])
        _check_witnesses(f, n, indices, ys, xs, ws)
        families += len(ys)
    return families, None


def _fill_cells(
    f: SimplicialMap, kind: str, max_dim: int, cells: list[tuple[int, int]], owned: bool
) -> FibrationReport:
    """Fill every family of each (n, k) cell in order, stopping at the first
    unfillable one; k is the index left out of [n] (-1 leaves none out).

    Counts on blocks of raw ids (:func:`_count_cell`).  A row that fills is
    verified by its witness, checked on the tables, and by the level laws of
    n, checked once before the level's first cell (:func:`require_level_laws`):
    together they give the row's equations.  Objects are built only for the
    first family that does not fill, whose certificate :func:`brute_force_fill`
    makes.

    A check that builds its own map (``owned``) drops each search map once
    no later cell reads it: cell (n, I) alone reads ``f.least(n, I)``, so it
    goes when the cell is counted, and only level n's cells read the indexes
    of X_{n-1}, so they go before level n + 1 starts.  No map is built twice.
    A caller's map keeps its maps, for the caller to read again.

    **One family per orbit.**  A map whose codomain is a point up to
    ``max_dim``, and whose domain carries a group action, has the action
    checked first (:func:`checked_orbits`): the generators permute each
    level and commute with every face, they generate a group H_0 on X_0,
    and ``H_0 x T_0 -> X_0`` is a bijection.  Any other map is searched in
    full: over a point ``f h = f`` for every h, elsewhere the action need
    not preserve f.  Each cell then enumerates only the families with
    ``x_{i_0}`` in ``T_{n-1} = v0^{-1}(T_0)``, i_0 the least index of I and
    v0 the vertex-0 map.  A map the check built fills them from a least-id
    map built only over the w with ``d_{i_0} w`` in T_{n-1}, which holds
    every filler of such a family; a caller's map fills them from its full
    ``f.least(n, I)``, kept for the pointwise sweep that reads it next.
    Each level's face identities are compared on ``T_n`` alone
    (:func:`require_level_laws`).  The cell's counts are |H_0| times theirs.
    This is exact even if the action has a kernel on a higher level.  For h
    in H_0, pick a word in the generators that gives h on X_0, and let it
    act on every level.  It is a permutation of each level that commutes
    with every face, so it maps compatible families bijectively onto
    compatible families, and fillers onto fillers.  Since v0 is a composite
    of faces, it commutes with v0, so it maps the families with ``x_{i_0}``
    in T_{n-1} onto those with ``v0 x_{i_0}`` in ``h T_0``.  The sets ``h T_0`` partition X_0, so
    the families of the cell fall into |H_0| classes, each in bijection
    with the representatives, filled rows with filled rows.  So a cell
    whose representatives all fill has all its families filled, and the
    first cell with a representative that does not fill is the full
    search's first failing cell: it is re-run in full, and its counts and
    certificate are the full search's.
    """
    over_point = f.codomain.counts[:max_dim + 1] == (1,) * (max_dim + 1)
    orbits = checked_orbits(f.domain, max_dim) if over_point else None
    done: list[HornCellStats] = []
    level = 0
    for n, k in cells:
        if n != level:
            if owned:
                f._indexes.clear()
            require_level_laws(f, n, None if orbits is None else orbits.level(n))
            level = n
        indices = tuple(i for i in range(n + 1) if i != k)
        if orbits is not None:
            least = f._build_least(n, indices, orbits.over(n, indices[0])) if owned else None
            reps, stuck = _count_cell(f, n, indices, orbits.level(n - 1), least)
            del least
            if stuck is None:
                done.append(HornCellStats(n, k, reps * orbits.order, reps * orbits.order))
                continue
        families, stuck = _count_cell(f, n, indices)
        if stuck is not None:
            y, faces = stuck
            family = CompatibleFamily.of_ids(f, n, indices, faces, y)
            done.append(HornCellStats(n, k, families + 1, families))
            return FibrationReport(kind, max_dim, tuple(done), brute_force_fill(family))
        if owned:
            f._leasts.pop((n, indices), None)
        done.append(HornCellStats(n, k, families, families))
    return FibrationReport(kind, max_dim, tuple(done), None)


def _horn_cells(max_dim: int) -> list[tuple[int, int]]:
    return [(n, k) for n in range(1, max_dim + 1) for k in range(n + 1)]


def check_kan_fibration(f: SimplicialMap, max_dim: int) -> FibrationReport:
    """Fill every full horn (I = [n] minus one index) for 1 <= n <= max_dim.

    Every search map the sweep builds stays cached with f.  If the codomain
    is a point up to max_dim and the domain carries a group action, the
    action is checked and each cell searches one family per orbit
    (:func:`_fill_cells`); otherwise every family is searched."""
    _require_max_dim(f.domain.bound, max_dim)
    return _fill_cells(f, "kan", max_dim, _horn_cells(max_dim), owned=False)


def check_kan_to_point(X: TruncatedSimplicialSet, max_dim: int) -> FibrationReport:
    """The report of ``check_kan_fibration(to_point_map(X), max_dim)``, on a
    map of its own that holds one cell's least-id map and one level's
    indexes at a time.  If X carries a group action, it is checked, and each
    cell searches one family per orbit (:func:`_fill_cells`)."""
    _require_max_dim(X.bound, max_dim)
    return _fill_cells(to_point_map(X), "kan", max_dim, _horn_cells(max_dim), owned=True)


def check_trivial_fibration_to_point(
    X: TruncatedSimplicialSet, max_dim: int
) -> FibrationReport:
    """Fill every compatible full boundary (I = [n]) for 1 <= n <= max_dim,
    on a map of its own, one family per orbit as :func:`check_kan_to_point`."""
    _require_max_dim(X.bound, max_dim)
    if X.size(0) == 0:
        return FibrationReport("trivial", max_dim, (), None, base_point_missing=True)
    cells = [(n, -1) for n in range(1, max_dim + 1)]
    return _fill_cells(to_point_map(X), "trivial", max_dim, cells, owned=True)


def _filled(ws: list[int | None]) -> list[int] | None:
    """The rows that found a filler, or None when every row found one."""
    return [r for r, w in enumerate(ws) if w is not None] if None in ws else None


def _rows(at: list[int] | None, col: list) -> list:
    """The entries of a column at the rows ``at`` (None: every row)."""
    return col if at is None else gather(col, at)


def _partial_fillers(
    f: SimplicialMap, n: int, indices: tuple[int, ...], ys: list[int], xs: list[list[int]]
) -> tuple[list[int | None], list[int]]:
    """Fill every row of a block of compatible partial horns (1 <= |I| <= n)
    on raw ids, by reduction to full-horn fills.

    Returns ``(ws, examined)``: each row's filler id or None, and the
    candidates its full-horn fills examined (as :func:`brute_force_fill`
    counts them).

    Double induction, run once for the whole block since its rows share I: a
    full horn goes to :func:`_fillers` and every filler is re-checked.
    Otherwise let k be the largest missing index; the faces ``d_{k-1} x_i``
    (i < k) and ``d_k x_i`` (i > k), re-indexed to I' inside [n-1], together
    with the target ``d_k y`` form a family one dimension down.  Filling it
    recursively produces a candidate x_k; the family enlarged by x_k is
    compatible again, and recursion on the larger index set finishes the job.
    A row whose family one dimension down does not fill stops there, with what
    that fill examined.  Both derived compatibilities are re-verified for
    every row and raise if they ever fail, since they hold for every
    compatible input.
    """
    if len(indices) == n:
        ws = _fillers(f, n, indices, ys, xs)
        at = _filled(ws)
        _check_witnesses(f, n, indices, _rows(at, ys), [_rows(at, x) for x in xs], _rows(at, ws))
        size = f.domain.counts[n]
        return ws, [size if w is None else w + 1 for w in ws]

    k = max(i for i in range(n + 1) if i not in indices)  # k >= 1: two are missing
    tables = f.domain._faces[n - 1]
    sub_indices = tuple(i if i < k else i - 1 for i in indices)
    sub_xs = [gather(tables[k - 1 if i < k else k], x) for i, x in zip(indices, xs)]
    sub_ys = gather(f.codomain._faces[n][k], ys)
    if not _all_compatible(f, n - 1, sub_indices, sub_ys, sub_xs):
        raise InternalInvariantError("derived family one dimension down is incompatible")

    x_k, examined = _partial_fillers(f, n - 1, sub_indices, sub_ys, sub_xs)
    at = _filled(x_k)
    if at == []:
        return x_k, examined
    pos = sum(1 for i in indices if i < k)
    enlarged = indices[:pos] + (k,) + indices[pos:]
    ys, xs = _rows(at, ys), [_rows(at, x) for x in xs]
    xs.insert(pos, _rows(at, x_k))
    if not _all_compatible(f, n, enlarged, ys, xs):
        raise InternalInvariantError("family enlarged by the found face is incompatible")

    ws, more = _partial_fillers(f, n, enlarged, ys, xs)
    if at is None:
        return ws, [a + b for a, b in zip(examined, more)]
    # x_k and examined are this call's own lists: the rows that went on take
    # their filler and add what it examined
    for r, w, m in zip(at, ws, more):
        x_k[r] = w
        examined[r] += m
    return x_k, examined


def fill_partial_horn(family: CompatibleFamily) -> FillCertificate:
    """Fill a partial horn (1 <= |I| <= n) by reduction to full-horn fills.

    Runs the id engine :func:`_partial_fillers` on a block of one and wraps the
    result in a :class:`FillCertificate`.  A full horn gets the certificate
    :func:`brute_force_fill` would give it.
    """
    r = len(family.index_set)
    if not 1 <= r <= family.n:
        raise RejectedInput(f"partial horn needs 1 <= |I| <= n, got |I|={r}, n={family.n}")
    if not is_compatible(family):
        raise RejectedInput("family is not compatible; nothing to fill")
    f, n = family.f, family.n
    [w], [examined] = _partial_fillers(f, n, family.index_set, *family.block())
    return FillCertificate(family, None if w is None else Simplex(n, w), examined)
