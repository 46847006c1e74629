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
:func:`check_trivial_fibration_to_point`, one driver :func:`_check_to_point`
for both) drops each map once no later cell reads it, so it holds one cell's
least-id map and one level's indexes at a time; a caller's map keeps its
maps (:func:`check_kan_fibration`), for the caller to read again.  Such a
check reads its domain a level at a time, level n on ``X.stage(n)``: a built
set is its own stage, and a :class:`~kancheck.simplicial.Stages` (a
double-nerve diagonal, a product) grows level n only when its first cell at
n starts, so a check that fails below ``max_dim`` pays only for the build up
to its failing level, and a size refusal fires only at a level the check
reaches.

A check that builds its own map counts, and does not search, every cell
(n, I) with ``|I| >= c + 2`` of a set that records it is c-coskeletal
(``_coskeletal``): such a cell has ``|X_n|`` families, each with one filler
(:func:`_check_to_point` proves it).  Only the builders of a groupoid's
nerve and of EG record it: a nerve with c = 2, so its horns are counted
from n = 4 and its boundaries from n = 3, and EG with c = 0, a simplex
being its tuple of vertices, so its horns are counted from n = 2 and its
boundaries from n = 1.  That record is trusted to them, as ``_factors`` is
to the makers of a product; the level laws of a counted level are still
checked, and a caller's map is searched in full.

A product over a point is decided from its factors by one rule,
:func:`_from_factors`, for :func:`check_kan_to_point`,
:func:`check_trivial_fibration_to_point` and the pointwise sweep of a tensor,
whose diagonal is the product of its factors
(:func:`kancheck.pointwise.verify_pointwise_to_point`, which passes
:func:`check_kan_to_point`).  Each factor gets the caller's check to a point,
on a map of its own, and when both pass, every cell's counts are the
products of theirs.  Otherwise the product itself is searched in full, as
every caller's map is (:func:`check_kan_fibration`).

Columns are read by the C-level ``gather``, key columns are zipped into
tuples by ``zip_keys`` (one column is its own key), and buckets and fillers
are looked up with ``map``.  A level at which every row draws exactly one
face keeps its rows as they are.

Every certificate is on raw ids: a :class:`FillCertificate` holds the
family's face ids, its target id and the filler id or None, and only
:func:`brute_force_fill`, the one fill of a single family, makes one.  The
Kan and trivial-fibration sweeps count on blocks and make a certificate only
for the first family that does not fill; the pointwise sweep makes none,
since a partial diagonal horn that does not fill there is a broken
invariant.  So ``_partial_fillers`` returns only each row's filler and the
candidates it examined, once per weighting it is given (one for the sweep
on a diagonal, up to two for a tensor's sweep on its factors), and keeps no
record of where a fill stopped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, repeat
from operator import add
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

from .errors import InternalInvariantError, RejectedInput
from .simplicial import (
    SimplicialMap,
    Stages,
    TruncatedSimplicialSet,
    _as_table,
    gather,
    require_level_laws,
    to_point_map,
    zip_keys,
)

if TYPE_CHECKING:
    from .bisimplicial import TruncatedBisimplicialSet


# A block is up to BLOCK_ROWS families of one (n, I) cell as id columns: the
# targets ``ys``, then ``xs[t]``, the faces at ``I[t]``.  Row r is the family
# ``(ys[r], xs[0][r], xs[1][r], ...)``.
Block = tuple[list[int], list[list[int]]]

BLOCK_ROWS = 16384


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
    """Outcome of a fill search, on raw ids: the family's faces (ids in
    X_{n-1}, ``faces[t]`` at ``index_set[t]``), its target (an id in Y_n),
    and the least-id filler (an id in X_n) or None.  Only
    :func:`brute_force_fill` makes one; a witness is re-verified on
    construction."""

    f: SimplicialMap
    n: int
    index_set: tuple[int, ...]
    faces: tuple[int, ...]
    target: int
    witness: int | None
    candidates_examined: int

    def __post_init__(self) -> None:
        if self.witness is not None:
            if not 0 <= self.witness < self.f.domain.counts[self.n]:
                raise InternalInvariantError(f"witness {self.witness} is not in the domain")
            _check_witnesses(
                self.f, self.n, self.index_set, [self.target], [[x] for x in self.faces],
                [self.witness],
            )

    @property
    def filled(self) -> bool:
        return self.witness is not None


def _fillers(
    f: SimplicialMap, n: int, indices: tuple[int, ...], ys: list[int], xs: list[list[int]]
) -> list[int | None]:
    """Each row's least-id n-simplex with faces x_i at I that maps to y, or None.

    One lookup per row in the least-id map of X_n by ``(f w, d_i w for i in
    I)`` (:meth:`SimplicialMap.least`), under the key ``(y, x_i for i in
    I)``: the least id of the fillers is the first filler a scan of X_n
    meets.
    """
    keys = zip_keys([ys, *xs] if f.headed(n) else xs, len(ys))
    return list(map(f.least(n, indices).get, keys))


def brute_force_fill(
    f: SimplicialMap, n: int, indices: Sequence[int], faces: Sequence[int], y: int
) -> FillCertificate:
    """The least-id filler of the family with face ids ``faces`` at
    ``indices`` and target id y, or the proof that none exists.  A family
    whose ids do not fit the tables, or that is not compatible, is refused
    with ``RejectedInput``.

    ``candidates_examined`` is defined as the count a scan of all of X_n in
    ascending id order would examine: ``witness + 1``, or |X_n| when
    nothing fills.  It is a definition, not the work done: the search itself
    is one index lookup (see :func:`_fillers`).
    """
    if not 1 <= n <= f.domain.bound:
        raise RejectedInput(f"ambient dimension {n} outside [1, {f.domain.bound}]")
    indices = _as_table(indices, len(indices), n + 1, "index set")
    if list(indices) != sorted(set(indices)):
        raise RejectedInput("index set must be strictly increasing")
    faces = _as_table(faces, len(indices), f.domain.counts[n - 1], "faces")
    [y] = _as_table([y], 1, f.codomain.counts[n], "target")
    xs = [[x] for x in faces]
    if not _all_compatible(f, n, indices, [y], xs):
        raise RejectedInput("family is not compatible; nothing to fill")
    [w] = _fillers(f, n, indices, [y], xs)
    return FillCertificate(f, n, indices, faces, y, w, f.domain.size(n) if w is None else w + 1)


def _blocks(f: SimplicialMap, n: int, indices: tuple[int, ...]) -> Iterator[Block]:
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
    drawn from an f-fiber.
    """
    X, Y = f.domain, f.codomain
    # d_{i_t} y: the head of face t's key, read only if the keys have one
    targets = [Y._faces[n][i] for i in indices] if f.headed(n - 1) else None
    pools = [f.index(n - 1, indices[:t] if n >= 2 else ()) for t in range(len(indices))]
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
    f: SimplicialMap, n: int, indices: tuple[int, ...]
) -> tuple[int, tuple[int, list[int]] | None]:
    """Fill the families of cell (n, I) in order, on blocks of raw ids, until
    one does not fill: ``(families, None)`` when all fill, else the count
    before it and its ``(y, faces)``.

    A row that fills is verified by its witness, checked on the tables; a
    block with a row that does not fill has every row's equations checked.
    """
    families = 0
    for ys, xs in _blocks(f, n, indices):
        ws = _fillers(f, n, indices, ys, xs)
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
    f: SimplicialMap, kind: str, max_dim: int, cells: list[tuple[int, int]],
    owned: Callable[[int], TruncatedSimplicialSet] | None,
) -> FibrationReport:
    """Fill every family of each (n, k) cell in order, stopping at the first
    unfillable one; k is the index left out of [n] (-1 leaves none out).

    Counts on blocks of raw ids (:func:`_count_cell`).  A row that fills is
    verified by its witness, checked on the tables, and by the level laws of
    n, checked once before the level's first cell (:func:`require_level_laws`):
    together they give the row's equations.  Only the first family that does
    not fill gets a certificate, which :func:`brute_force_fill` makes from
    its ids.

    A check that builds its own map passes ``owned``, the stage function of
    its domain (``X.stage``).  On a stage that records it is c-coskeletal
    (``_coskeletal``: 2 on a groupoid's nerve, 0 on EG), such a check
    counts each cell (n, I) with ``|I| >= c + 2`` instead of searching it:
    ``|X_n|`` families, all filled (see :func:`_check_to_point`); the level
    laws are still checked.  On EG only the two horn cells at n = 1 are
    searched.
    It drops each search map once no later cell reads it: cell (n, I) alone
    reads ``f.least(n, I)``, so it goes when the cell is counted, and only
    level n's cells read the indexes of X_{n-1}, so they go before level
    n + 1 starts.  No map is built twice.  Level n is
    searched on ``owned(n)``, a set that reaches n: a set grown a level at a
    time (:class:`~kancheck.simplicial.Stages`) builds level n only there,
    when the first cell of n starts, so a check that stops at a level builds
    nothing above it; a built set is its own stage at every level.
    Its map is made afresh only on a new stage, which costs no search work,
    since the old map's indexes and least-id maps are dropped by then.  A
    caller's map (``owned`` None) keeps its maps, for the caller to read
    again, and has every cell searched.
    """
    done: list[HornCellStats] = []
    level = 0
    counted = None  # the fewest faces of a counted cell, or None
    for n, k in cells:
        if n != level:
            if owned:
                f._indexes.clear()
                stage = owned(n)
                if stage is not f.domain:
                    f = to_point_map(stage)
                c = f.domain._coskeletal
                counted = None if c is None else c + 2
            require_level_laws(f, n)
            level = n
        indices = tuple(i for i in range(n + 1) if i != k)
        if counted is not None and len(indices) >= counted:
            done.append(HornCellStats(n, k, f.domain.counts[n], f.domain.counts[n]))
            continue
        families, stuck = _count_cell(f, n, indices)
        if stuck is not None:
            y, faces = stuck
            done.append(HornCellStats(n, k, families + 1, families))
            failure = brute_force_fill(f, n, indices, faces, y)
            return FibrationReport(kind, max_dim, tuple(done), failure)
        if owned:
            f._leasts.pop((n, indices), None)
        done.append(HornCellStats(n, k, families, families))
    return FibrationReport(kind, max_dim, tuple(done), None)


def _horn_cells(max_dim: int) -> list[tuple[int, int]]:
    return [(n, k) for n in range(1, max_dim + 1) for k in range(n + 1)]


def check_kan_fibration(f: SimplicialMap, max_dim: int) -> FibrationReport:
    """Fill every full horn (I = [n] minus one index) for 1 <= n <= max_dim.

    Every family of f is searched, whatever its domain and codomain, and
    every search map the sweep builds stays cached with f, for the caller
    to read again."""
    _require_max_dim(f.domain.bound, max_dim)
    return _fill_cells(f, "kan", max_dim, _horn_cells(max_dim), owned=None)


def check_kan_to_point(X: TruncatedSimplicialSet | Stages, max_dim: int) -> FibrationReport:
    """The report of ``check_kan_fibration(to_point_map(X), max_dim)``."""
    return _check_to_point(X, max_dim, "kan", _horn_cells(max_dim))


def check_trivial_fibration_to_point(
    X: TruncatedSimplicialSet | Stages, max_dim: int
) -> FibrationReport:
    """Fill every compatible full boundary (I = [n]) for 1 <= n <= max_dim."""
    return _check_to_point(X, max_dim, "trivial", [(n, -1) for n in range(1, max_dim + 1)])


def _check_to_point(
    X: TruncatedSimplicialSet | Stages, max_dim: int, kind: str, cells: list[tuple[int, int]]
) -> FibrationReport:
    """Fill the ``cells`` of X over a point on a map of its own, level n on
    ``X.stage(n)`` (:func:`_fill_cells`), unless X is a product decided from
    its factors (:func:`_from_factors`).  The report is the built set's.

    On a set that records it is c-coskeletal (``_coskeletal``), a cell
    (n, I) with ``|I| >= c + 2`` is counted, not searched: it has exactly
    ``|X_n|`` families, each with one filler.  These are the horns at
    ``n >= c + 2`` and the boundaries at ``n >= c + 1``.  Proof: a family
    over I is a map into X from ``Λ_I``, the union of the faces ``d_i Δ^n``
    for i in I, and its fillers are its extensions to Δ^n.  A c-face of Δ^n
    has c + 1 < |I| vertices, so it misses some i in I and lies in
    ``d_i Δ^n``; so ``Λ_I`` holds the c-skeleton of Δ^n, and
    ``sk_c Λ_I = sk_c Δ^n``.  X being c-coskeletal, a map into X from any K
    restricts bijectively to ``sk_c K``, so ``Hom(Λ_I, X) = Hom(sk_c Δ^n,
    X) = Hom(Δ^n, X) = X_n``, restriction from Δ^n being the bijection.
    Over a point every family has the one target, so the cell has ``|X_n|``
    families, and each fills uniquely.

    That X is c-coskeletal is trusted to its builder, as ``_factors`` is:
    only :func:`kancheck.groupoids.nerve_and_layout` and
    :func:`kancheck.groupoids.eg_construction` record it, on the sets
    they build; no copy, extension or product does.  The level laws of a
    counted level are still checked (:func:`require_level_laws`), so a set
    that breaks one is refused as a search would refuse it.  A caller's map
    (:func:`check_kan_fibration`) is searched in full, for a caller that
    reads the maps its search builds, as the bimap pointwise sweep does; a
    tensor's pointwise sweep decides its factors here and fills on fresh
    maps of its own.
    """
    _require_max_dim(X.bound, max_dim)
    report = _from_factors(X, max_dim, partial(_check_to_point, kind=kind, cells=cells))
    if report is not None:
        return report
    if kind == "trivial" and X.stage(0).counts[0] == 0:
        return FibrationReport(kind, max_dim, (), None, base_point_missing=True)
    return _fill_cells(to_point_map(X.stage(1)), kind, max_dim, cells, owned=X.stage)


def _from_factors(
    X: TruncatedSimplicialSet | Stages | TruncatedBisimplicialSet, max_dim: int,
    check: Callable[[TruncatedSimplicialSet, int], FibrationReport],
) -> FibrationReport | None:
    """The report of ``check(X, max_dim)`` for ``X = A x B``, a product that
    records its factors (``_factors``), or a tensor ``A ⊠ B``, whose diagonal
    is ``A x B``, from ``check`` of each factor: the cellwise products of
    their ``families`` and ``filled``, when both pass.  None when X records
    no factors, or when a factor fails or breaks a law, for the caller to
    search X in full.  The callers are :func:`_check_to_point` and
    :func:`kancheck.pointwise.verify_pointwise_to_point`.

    The faces of ``A x B`` act on both coordinates, so a family of X, a horn
    or a boundary, is a pair of families, one of A and one of B, compatible
    exactly when both are, and a filler of it is a pair of fillers of theirs.
    So each cell of X has the product of the factors' counts, and it fills
    exactly when both of theirs do.  A passing report carries counts and no
    ids, so it is X's own, byte for byte.  A failing one names X's first
    family that does not fill, which only a search of X finds; and a factor
    that breaks a law need not make X break one (the other factor may be
    empty at that level), so X's search names the law X breaks, if any.

    ``check`` runs once per distinct factor, and on B only when A passes,
    since a failing A already sends X to a full search.  That X is
    the product of its factors is trusted to ``product``, ``product_stages``
    and ``tensor``, the only makers of ``_factors``, which build X from them.
    """
    if X._factors is None:
        return None
    A, B = X._factors
    try:
        first = check(A, max_dim)
        if not first.passed:
            return None
        second = first if B is A else check(B, max_dim)
    except RejectedInput:
        return None
    if not second.passed:
        return None
    cells = tuple(
        HornCellStats(a.n, a.k, a.families * b.families, a.filled * b.filled)
        for a, b in zip(first.cells, second.cells)
    )
    return FibrationReport(first.kind, max_dim, cells, None)


def _filled(ws: list[int | None]) -> list[int] | None:
    """The rows that found a filler, or None when every row found one."""
    return [r for r, w in enumerate(ws) if w is not None] if None in ws else None


def _rows(at: list[int] | None, col: list) -> list:
    """The entries of a column at the rows ``at`` (None: every row)."""
    return col if at is None else gather(col, at)


def _partial_fillers(
    f: SimplicialMap, n: int, indices: tuple[int, ...], ys: list[int], xs: list[list[int]],
    weightings: Sequence[Sequence[int] | None] = (None,),
) -> tuple[list[int | None], list[list[int]]]:
    """Fill every row of a block of compatible partial horns (1 <= |I| <= n)
    on raw ids, by reduction to full-horn fills.

    Returns ``(ws, examined)``: each row's filler id or None, and for each of
    the ``weightings``, in order, the candidates each row's full-horn fills
    examined.  Weighting None counts them as :func:`brute_force_fill` does,
    ``w + 1`` for a filler w; a weighting ``scale`` weighs a filler w at
    level m ``w * scale[m]`` instead: the share of a product filler
    ``w * |B_m| + b`` that its factor A gives (the pointwise sweep of a
    tensor fills on its factors, once for every weighting its cells read, see
    :mod:`kancheck.pointwise`).  A row that does not fill at level m counts
    ``|X_m|`` under every weighting.

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
        return ws, [
            [size if w is None else w + 1 for w in ws] if scale is None
            else [size if w is None else w * scale[n] for w in ws]
            for scale in weightings
        ]

    k = max(i for i in range(n + 1) if i not in indices)  # k >= 1: two are missing
    tables = f.domain._faces[n - 1]
    sub_indices = tuple(i if i < k else i - 1 for i in indices)
    sub_xs = [gather(tables[k - 1 if i < k else k], x) for i, x in zip(indices, xs)]
    sub_ys = gather(f.codomain._faces[n][k], ys)
    if not _all_compatible(f, n - 1, sub_indices, sub_ys, sub_xs):
        raise InternalInvariantError("derived family one dimension down is incompatible")

    x_k, examined = _partial_fillers(f, n - 1, sub_indices, sub_ys, sub_xs, weightings)
    at = _filled(x_k)
    if at == []:
        return x_k, examined
    pos = sum(1 for i in indices if i < k)
    enlarged = indices[:pos] + (k,) + indices[pos:]
    ys, xs = _rows(at, ys), [_rows(at, x) for x in xs]
    xs.insert(pos, _rows(at, x_k))
    if not _all_compatible(f, n, enlarged, ys, xs):
        raise InternalInvariantError("family enlarged by the found face is incompatible")

    ws, more = _partial_fillers(f, n, enlarged, ys, xs, weightings)
    if at is None:
        return ws, [list(map(add, e, m)) for e, m in zip(examined, more)]
    # x_k and examined are this call's own lists: the rows that went on take
    # their filler and add what it examined
    for r, w in zip(at, ws):
        x_k[r] = w
    for e, m in zip(examined, more):
        for r, v in zip(at, m):
            e[r] += v
    return x_k, examined
