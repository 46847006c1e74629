"""Pointwise horn fillers obtained from a diagonal partial-horn filler.

Given a bisimplicial map f whose diagonal is a Kan fibration, every horn of a
column map ``column_map(f, p)`` can be filled.  A horn is a compatible family
of that column map whose index set is [q] minus one index l; its faces and
target are the ids of bisimplices at levels (p, q-1) and (p, q).  The
construction degenerates the given faces up to the diagonal, fills one
partial diagonal horn there, and carves the answer back down with faces.
Every step the argument relies on (compatibility of the built diagonal
family and of each derived partial-horn family, that the diagonal horn
fills, and the requested face/target relations of the answer) is re-verified
at run time and raises ``InternalInvariantError`` if it ever fails.  A horn
itself is verified by its answer: the answer's faces and image are checked,
and the laws of its column level (``d_i d_j = d_{j-1} d_i`` and
``f d_i = d_i f``), checked once per (p, q) and direction by
:func:`kancheck.simplicial.require_level_laws`, then give the horn's
equations.

Each step runs on blocks of raw table ids, a whole cell's horns at a time
(up to ``kan.BLOCK_ROWS`` rows, see :mod:`kancheck.kan`): ``_diagonal_family``
degenerates a column at a time, ``kan._partial_fillers`` fills, once for the
block since every horn of a cell leads to the same diagonal index set, and
``_answer`` cuts down; every row of every step is still re-checked, and no
object is built.  Both sweeps, direct and transposed, fill in the one
diagonal map the Kan check passed: horizontal and vertical operators commute,
so the diagonal of the transpose is the same map.  A partial fill ends in
full-horn fills of that map, which look up its least-id maps, each built
once and kept with the map.  The transposed sweep enumerates on f's own row
maps (:func:`kancheck.bisimplicial.transpose_map` shares them), so their
indexes are kept with f, as the column maps' are.

The diagonal of ``tensor(A, B)`` is ``product(A, B)``, so the Kan
precondition of a tensor's sweep to the point is decided from its factors
by :func:`kancheck.kan.check_kan_to_point` (:func:`kancheck.kan._from_factors`):
on an eg-tensor it checks EG alone, once, searching its two n = 1 horn cells
and counting the rest.  When a factor fails, :func:`verify_pointwise_fillers`
searches the diagonal map in full, so the message is the full search's.

A tensor's sweep to the point runs on its factors
(:func:`verify_pointwise_to_point`): column p of ``A ⊠ B`` is |A_p| copies
of B, so a horn is a pair ``(a, β)`` of a in A_p and a horn β of B, and it
lifts through the pair of its parts, a degenerated in A and β in B, each
filled on its factor's map: a cell costs ``|A_p| + #β`` fills, not
``|A_p|·#β``.  Product ids are ``a·|B_m| + b``, so a row examines
``F(a) + G(β)`` candidates, A's parts weighing a filler w by ``|B_m|`` and
B's by ``w + 1``, and a cell's ``max_search`` is ``max F + max G``.  The
transposed cell (p, q, l) reads the same two parts as the direct one, with
the factors' roles swapped, and a map's two parts sit at the same
``(n, I)``, so each distinct factor map fills once per cell, its horn rows
and its degenerated rows in the same blocks, under every weighting that the
cells reading them need: when B is A, the transposed sweep fills nothing.
Each block is checked as a full sweep checks its family, and each answer
is cut back down to its a or to β's faces; that a pair of answers solves
the pair's horn is trusted to ``tensor``, which builds X from its factors.
Any other X, and a tensor with a factor that is not Kan, is swept on its
lines and its diagonal.

Index bookkeeping, for a horn in column p, vertical dimension q >= 1 and
missing index l: the diagonal family lives at dimension n = p + q over the
index set ``I = {i : i < l} u {p + i : l < i <= q}``, which has exactly q
elements, so the partial-horn filler applies whenever q >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import kan
from .bisimplicial import (
    BisimplicialMap,
    TruncatedBisimplicialSet,
    column_map,
    diagonal_map,
    to_point_bimap,
    transpose_map,
)
from .errors import InternalInvariantError, RejectedInput, TruncationError
from .kan import (
    _all_compatible,
    _blocks,
    _check_witnesses,
    _partial_fillers,
    check_kan_fibration,
)
from .simplicial import (
    SimplicialMap,
    TruncatedSimplicialSet,
    gather,
    require_level_laws,
    to_point_map,
)


def _repeat(
    tables: Sequence, i: int, times: int, level: int, x: list[int], step: int
) -> list[int]:
    """Apply operator i ``times`` times to the id column x, reading
    ``tables[level][i]`` and moving ``step`` levels each time (+1 for
    degeneracies, -1 for faces)."""
    for m in range(level, level + step * times, step):
        x = gather(tables[m][i], x)
    return x


def _raise(degens: Sequence, p: int, m: int, s: int, x: list[int]) -> list[int]:
    """``(s_0)^s (s_p)^(m-p-s) x`` for each x at level p, reading the
    degeneracy tables ``degens`` of a line: simplices at level m."""
    x = _repeat(degens, p, m - p - s, p, x, 1)
    return _repeat(degens, 0, s, m - s, x, 1)


def _lower(faces: Sequence, p: int, q: int, l: int, x: list[int]) -> list[int]:
    """``(d_{p+1})^{q-l} (d_0)^l x`` for each x at level p + q, reading the
    face tables ``faces`` of a line: simplices at level p."""
    x = _repeat(faces, 0, l, p + q, x, -1)
    return _repeat(faces, p + 1, q - l, p + q - l, x, -1)


def _degenerate(
    X: TruncatedBisimplicialSet, p: int, m: int, s: int, x: list[int]
) -> list[int]:
    """``(s_0^h)^s (s_p^h)^(m-p-s) (s_s^v)^p x`` for each x of a column at level
    (p, m-p): bisimplices at (m, m).  Powers apply right to left."""
    x = _repeat(X.columns[p]._degens, s, p, m - p, x, 1)
    return _raise(X.rows[m]._degens, p, m, s, x)


def _diagonal_family(
    f: BisimplicialMap, diag_f: SimplicialMap, p: int, q: int, l: int,
    ys: list[int], xs: list[list[int]],
) -> tuple[int, tuple[int, ...], list[int], list[list[int]]]:
    """The diagonal families of a block of horns of column p, as
    ``(n, indices, ys, xs)`` on raw ids, every row verified compatible for
    ``diag_f``.

    For the horns' dimension q and missing index l, face i maps to
      (s_0^h)^{l-1} (s_p^h)^{q-l} (s_{l-1}^v)^p x_i   when i < l, kept at index i,
      (s_0^h)^{l}   (s_p^h)^{q-l-1} (s_l^v)^p   x_i   when i > l, placed at index p+i,
    and the target to (s_0^h)^l (s_p^h)^{q-l} (s_l^v)^p y.
    """
    n = p + q
    indices = tuple(range(l)) + tuple(range(p + l + 1, n + 1))
    lifted = [
        _degenerate(f.domain, p, n - 1, l - 1 if t < l else l, x) for t, x in enumerate(xs)
    ]
    target = _degenerate(f.codomain, p, n, l, ys)
    if not _all_compatible(diag_f, n, indices, target, lifted):
        raise InternalInvariantError("built diagonal family is not compatible")
    return n, indices, target, lifted


def _answer(
    f: BisimplicialMap, p: int, q: int, l: int,
    indices: Sequence[int], ys: list[int], xs: list[list[int]], ws: list[int],
) -> list[int]:
    """Cut each diagonal filler of ws down by ``(d_{p+1}^h)^{q-l} (d_0^h)^l
    (d_l^v)^p`` to level (p, q), on raw ids, and check that every answer has
    its row's requested faces ``d_i^v x == x_i`` (i != l, the outer ones
    included) and maps to its y."""
    X, n = f.domain, p + q
    x = _repeat(X.columns[n]._faces, l, p, n, ws, -1)
    x = _lower(X.rows[q]._faces, p, q, l, x)
    _check_witnesses(f.column_maps[p], q, indices, ys, xs, x)
    return x


@dataclass(frozen=True)
class SweepCell:
    p: int
    q: int
    missing: int
    problems: int
    filled: int
    max_search: int


@dataclass(frozen=True)
class PointwiseSweepReport:
    max_total_dim: int
    direct_cells: tuple[SweepCell, ...]
    transposed_cells: tuple[SweepCell, ...]

    @property
    def passed(self) -> bool:
        return all(c.filled == c.problems for c in self.direct_cells + self.transposed_cells)

    @property
    def problems_checked(self) -> int:
        return sum(c.problems for c in self.direct_cells + self.transposed_cells)

    @property
    def families_verified_compatible(self) -> int:
        # every attempted fill builds exactly one compatibility-checked family
        return self.problems_checked


def _sweep(
    f: BisimplicialMap,
    diag_f: SimplicialMap,
    max_total_dim: int,
    transposed: bool,
) -> tuple[SweepCell, ...]:
    """Fill every horn of each (p, q, l) cell in order, on blocks of raw ids.

    Each horn is verified by its answer and by the laws of level q of its
    column map, checked before the level's first cell.  ``diag_f`` passed
    the Kan check up to ``max_total_dim``, so every diagonal family fills; one
    that does not is a broken invariant, named by its cell and direction.
    """
    cells: list[SweepCell] = []
    for p in range(max_total_dim):
        col_f = column_map(f, p)
        for q in range(1, max_total_dim - p + 1):
            require_level_laws(col_f, q)
            for missing in range(q + 1):
                indices = tuple(i for i in range(q + 1) if i != missing)
                problems = max_search = 0
                for ys, xs in _blocks(col_f, q, indices):
                    family = _diagonal_family(f, diag_f, p, q, missing, ys, xs)
                    ws, [examined] = _partial_fillers(diag_f, *family)
                    if None in ws:
                        raise InternalInvariantError(
                            f"{'transposed' if transposed else 'direct'} horn at "
                            f"(p, q, missing) = ({p}, {q}, {missing}) did not fill "
                            "through the Kan diagonal"
                        )
                    max_search = max(max_search, *examined)
                    _answer(f, p, q, missing, indices, ys, xs, ws)
                    problems += len(ys)
                cells.append(SweepCell(p, q, missing, problems, problems, max_search))
    return tuple(cells)


def _require_total_dim(bounds: tuple[int, int], max_total_dim: int) -> None:
    if max_total_dim < 1:
        raise RejectedInput("max_total_dim must be at least 1")
    if min(bounds) < max_total_dim:
        raise TruncationError(
            f"bounds {bounds} cannot hold diagonal families up to {max_total_dim}"
        )


def verify_pointwise_fillers(f: BisimplicialMap, max_total_dim: int) -> PointwiseSweepReport:
    """Certify that a diagonal Kan fibration fills every pointwise horn.

    First the diagonal map is required to pass the brute-force Kan check up to
    ``max_total_dim`` (rejected input otherwise, naming the failing horn).
    Then every pointwise horn problem with p + q <= max_total_dim is solved
    through that diagonal, and the whole sweep is repeated on the transpose,
    whose diagonal is the same map, covering the row direction by the same
    symmetry.
    """
    _require_total_dim(f.domain.bounds, max_total_dim)
    diag_f = diagonal_map(f)
    kan_report = check_kan_fibration(diag_f, max_total_dim)
    if not kan_report.passed:
        fail = kan_report.failure
        raise RejectedInput(
            "the diagonal map is not a Kan fibration up to dimension "
            f"{max_total_dim}: unfillable horn at n={fail.n}, "
            f"I={fail.index_set}, faces={fail.faces}"
        )
    return PointwiseSweepReport(
        max_total_dim,
        _sweep(f, diag_f, max_total_dim, transposed=False),
        _sweep(transpose_map(f), diag_f, max_total_dim, transposed=True),
    )


def _widest(maxima: list[int], examined: list[list[int]]) -> list[int]:
    """The running maxima, one per weighting, with a block's ``examined``."""
    return [max([m, *e]) for m, e in zip(maxima, examined)]


def _factor_rows(
    f: SimplicialMap, weightings: Sequence, p: int, q: int, l: int, horns: int, count: int,
    directions: tuple[str, str],
) -> tuple[list[int], list[int]]:
    """The parts of cell (p, q, l) on a factor M, which f sends to a point,
    filled together: its horn part, every horn β of M at (q, l), and its
    degenerated part, the ids d below ``count`` of M_p, each degenerated to
    its diagonal family at n = p + q, whose index set is the same for both.

    The rows, horns first, fill in blocks of at most ``kan.BLOCK_ROWS``,
    every row verified compatible first.  Each horn's answer is cut back down
    to β's faces and each d's to d.  ``directions`` name each part's cell
    direction, for a row that does not fill or cut down; the enumerated
    horns must be the ``horns`` the factor's Kan check counted.  Returns,
    per weighting, the most any row of each part examined."""
    M, n = f.domain, p + q
    horn = tuple(i for i in range(q + 1) if i != l)
    indices = tuple(range(l)) + tuple(range(p + l + 1, n + 1))
    # a face below l is degenerated by s_{l-1}, one above it by s_l
    shifts = [l - 1 if t < l else l for t in range(q)]
    wheres = [f"{d} horn at (p, q, missing) = ({p}, {q}, {l})" for d in directions]
    max_h, max_d = [0] * len(weightings), [0] * len(weightings)
    blocks, start, found = _blocks(f, q, horn), 0, 0
    while (block := next(blocks, None)) or start < count:
        ys, xs = block or ([], [[] for _ in horn])
        ds = list(range(start, min(count, start + kan.BLOCK_ROWS - len(ys))))
        start, h = start + len(ds), len(ys)
        ups = {s: _raise(M._degens, p, n - 1, s, ds) for s in set(shifts)}
        lifted = [_repeat(M._degens, s, p, q - 1, x, 1) + ups[s] for s, x in zip(shifts, xs)]
        # the point's ids are 0 at every level, so every target is 0 at n
        rows = [0] * (h + len(ds))
        if not _all_compatible(f, n, indices, rows, lifted):
            raise InternalInvariantError("built diagonal family is not compatible")
        ws, examined = _partial_fillers(f, n, indices, rows, lifted, weightings)
        if None in ws:
            where = wheres[ws.index(None) >= h]
            raise InternalInvariantError(f"{where} did not fill through the Kan diagonal")
        _check_witnesses(f, q, horn, ys, xs, _repeat(M._faces, l, p, n, ws[:h], -1))
        if _lower(M._faces, p, q, l, ws[h:]) != ds:
            raise InternalInvariantError(
                f"{wheres[1]}: a filler does not cut back down to its simplex"
            )
        found += h
        max_h = _widest(max_h, [e[:h] for e in examined])
        max_d = _widest(max_d, [e[h:] for e in examined])
    if found != horns:
        raise InternalInvariantError(f"{wheres[0]}: {found} horns, {horns} counted")
    return max_h, max_d


def _factor_cells(
    maps: list[SimplicialMap], weightings: list[list], horns: list[dict], p: int, q: int, l: int
) -> list[SweepCell]:
    """The direct and the transposed cell (p, q, l) of a tensor's sweep, on
    its factors' maps: one when B is A, else A's then B's, each filling under
    ``weightings[i]``, A's weighting first and B's last, with ``horns[i]``
    the horn counts of its factor's Kan check.  A horn of the direct cell is
    a pair ``(a, β)`` of an a in A_p and a horn β of B at (q, l); of the
    transposed cell, a pair of a horn of A and a b in B_p.  So a cell reads
    two parts, the degenerated part of its D factor and the horn part of its
    H factor, and a row examines ``F(d) + G(β)`` candidates: the cell's
    ``max_search`` is the sum of the two parts' maxima, each under its
    factor's weighting.

    Each map fills once per cell (:func:`_factor_rows`), its horn part and,
    when the cell that reads it has a horn, its degenerated part, under
    every weighting of the map; a part is named by the direction of the first
    cell that reads it.  When B is A, the transposed cell reads the direct
    cell's parts."""
    parts = [
        _factor_rows(
            f, weightings[i], p, q, l, horns[i][q, l],
            f.domain.counts[p] if horns[-1 - i][q, l] else 0,
            ("direct" if f is maps[-1] else "transposed",
             "direct" if f is maps[0] else "transposed"),
        )
        for i, f in enumerate(maps)
    ]
    cells = []
    # role 0 is A's and role -1 is B's: its map in maps, and its weighting
    # in that map's list
    for d, h in ((0, -1), (-1, 0)):
        problems = maps[d].domain.counts[p] * horns[h][q, l]
        search = parts[d][1][d] + parts[h][0][h] if problems else 0
        cells.append(SweepCell(p, q, l, problems, problems, search))
    return cells


def verify_pointwise_to_point(
    X: TruncatedBisimplicialSet, max_total_dim: int
) -> PointwiseSweepReport:
    """The report of ``verify_pointwise_fillers(to_point_bimap(X),
    max_total_dim)``, for ``X = tensor(A, B)`` swept on A and B.

    Column p of ``A ⊠ B`` is |A_p| copies of B and its diagonal is
    ``A × B``, whose ids are ``a·|B_m| + b``.  So a horn of column p is a
    pair ``(a, β)``, its diagonal family a pair of families, and its least
    filler the pair of the factors' least fillers: direct cell (p, q, l)
    reads two parts, the degenerated a in A and the horn β in B, and
    transposed cell (p, q, l) the same two parts with the factors' roles
    swapped, the horns of A and the degenerated b in B
    (:func:`_factor_cells`).  A row's ``examined`` is ``Σ_j (a_j·|B_{m_j}| +
    b_j + 1)`` over its chain of full fills, so A's parts are always weighed
    by ``|B_m|`` and B's by ``w + 1``, whichever sweep reads them.  The
    factor rule (:func:`kancheck.kan._from_factors`) decides each factor Kan
    by :func:`kancheck.kan.check_kan_to_point`, which counts EG's cells from
    dim 2 up, and whose horn counts the sweep's enumeration must match.  The
    sweep fills on a fresh map per distinct factor, which builds the least-id
    maps it reads on first read, once per map and cell, under every
    weighting of that map: when B is A, the one map fills under both
    weightings and the transposed sweep fills nothing; otherwise each map
    fills under its factor's weighting.  That a pair of answers solves the
    pair's horn is trusted to ``tensor``, the only maker of a bisimplicial
    ``_factors``, which builds X's lines from the factors, as the rule
    trusts ``product``.

    When the rule gives no report (X records no factors, or a factor is not
    Kan or breaks a law), X takes the path of :func:`verify_pointwise_fillers`,
    which searches the diagonal, not the factors again, so a refusal names
    the diagonal's own ids.
    """
    _require_total_dim(X.bounds, max_total_dim)
    maps: list[SimplicialMap] = []
    horns: list[dict] = []

    def check(S: TruncatedSimplicialSet, n: int) -> kan.FibrationReport:
        report = kan.check_kan_to_point(S, n)
        maps.append(to_point_map(S))
        horns.append({(c.n, c.k): c.families for c in report.cells})
        return report

    if kan._from_factors(X, max_total_dim, check) is None:
        return verify_pointwise_fillers(to_point_bimap(X), max_total_dim)
    # product ids are a·|B_m| + b, so A's parts weigh a filler w by |B_m|
    # and B's by w + 1; one map, when B is A, fills under both
    weightings: list[list] = [[] for _ in maps]
    weightings[0].append(X._factors[1].counts)
    weightings[-1].append(None)
    cells = [
        _factor_cells(maps, weightings, horns, p, q, l) for p in range(max_total_dim)
        for q in range(1, max_total_dim - p + 1) for l in range(q + 1)
    ]
    return PointwiseSweepReport(
        max_total_dim, tuple(c[0] for c in cells), tuple(c[1] for c in cells)
    )
