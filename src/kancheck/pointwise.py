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

The Kan check of the diagonal over a point is decided from its factors when
the diagonal is a product (see :func:`kancheck.kan.check_kan_fibration`):
the diagonal of ``tensor(A, B)`` is ``product(A, B)``, so the precondition
of ``pointwise`` on an eg-tensor searches EG alone, once, and multiplies its
counts.  Its report, and the message when it fails, are the full search's.

A tensor's sweep to the point runs on its factors
(:func:`verify_pointwise_to_point`): column p of ``A ⊠ B`` is |A_p| copies
of B, so a horn is a pair ``(a, β)`` of a in A_p and a horn β of B, and it
lifts through the pair of its parts, a degenerated in A and β in B, each
filled on its factor's map: a cell costs ``|A_p| + #β`` fills, not
``|A_p|·#β``.  Product ids are ``a·|B_m| + b``, so a row examines
``F(a) + G(β)`` candidates, and a cell's ``max_search`` is ``max F + max
G``.  Each part is checked as a full sweep checks its family, and each
answer is cut back down to its a and to β's faces; that a pair of answers
solves the pair's horn is trusted to ``tensor``, which builds X from its
factors.  Any other X, and a tensor with a factor that is not Kan, is swept
on its lines and its diagonal.

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
from .simplicial import SimplicialMap, gather, require_level_laws, to_point_map


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
                    ws, examined = _partial_fillers(diag_f, *family)
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


def _factor_fill(
    f: SimplicialMap, n: int, indices: tuple[int, ...], ys: list[int], xs: list[list[int]],
    scale: Sequence[int] | None, where: str,
) -> tuple[list[int], list[int]]:
    """Fill a block of one factor's part of a cell's diagonal families, every
    row verified compatible first: ``(ws, examined)``, as
    :func:`kancheck.kan._partial_fillers` gives them.  ``where`` names the
    cell and direction of a part that does not fill."""
    if not _all_compatible(f, n, indices, ys, xs):
        raise InternalInvariantError("built diagonal family is not compatible")
    ws, examined = _partial_fillers(f, n, indices, ys, xs, scale)
    if None in ws:
        raise InternalInvariantError(f"{where} did not fill through the Kan diagonal")
    return ws, examined


def _factor_cell(
    maps: tuple[SimplicialMap, SimplicialMap], scales: tuple, p: int, q: int, l: int,
    direction: str,
) -> SweepCell:
    """The cell (p, q, l) of a tensor's sweep, on its factors D and H, which
    ``maps`` send to a point: each horn is a pair ``(d, β)`` of a d in D_p
    and a horn β of H at (q, l), degenerated to the pair of diagonal families
    that :func:`_diagonal_family` builds.  Its D part depends on d alone and
    is filled once per d, its H part once per horn.  A row examines
    ``F(d) + G(β)`` candidates, so the cell's ``max_search`` is the sum of
    the two parts' maxima; ``scales`` weighs each part's filler ids
    (:func:`kancheck.kan._partial_fillers`).  Each answer is cut back down:
    the D part must return its d, the H part must have β's faces."""
    (f_d, f_h), (scale_d, scale_h) = maps, scales
    D, H, n = f_d.domain, f_h.domain, p + q
    horn = tuple(i for i in range(q + 1) if i != l)
    indices = tuple(range(l)) + tuple(range(p + l + 1, n + 1))
    where = f"{direction} horn at (p, q, missing) = ({p}, {q}, {l})"
    horns = max_h = 0
    for ys, xs in _blocks(f_h, q, horn):
        # the point's ids are 0 at every level, so ys is the target at n too
        lifted = [
            _repeat(H._degens, l - 1 if t < l else l, p, q - 1, x, 1) for t, x in enumerate(xs)
        ]
        ws, examined = _factor_fill(f_h, n, indices, ys, lifted, scale_h, where)
        _check_witnesses(f_h, q, horn, ys, xs, _repeat(H._faces, l, p, n, ws, -1))
        horns += len(ys)
        max_h = max(max_h, *examined)
    count = D.counts[p] if horns else 0
    max_d = 0
    for start in range(0, count, kan.BLOCK_ROWS):
        ds = list(range(start, min(start + kan.BLOCK_ROWS, count)))
        # each row's faces are one simplex at every index below l and
        # another at every index above it
        below = _raise(D._degens, p, n - 1, l - 1, ds) if l else []
        above = _raise(D._degens, p, n - 1, l, ds) if l < q else []
        lifted = [below if i < l else above for i in indices]
        ws, examined = _factor_fill(f_d, n, indices, [0] * len(ds), lifted, scale_d, where)
        if _lower(D._faces, p, q, l, ws) != ds:
            raise InternalInvariantError(
                f"{where}: a filler does not cut back down to its simplex"
            )
        max_d = max(max_d, *examined)
    problems = count * horns
    return SweepCell(p, q, l, problems, problems, max_d + max_h if problems else 0)


def _factor_sweep(
    maps: tuple[SimplicialMap, SimplicialMap], scales: tuple, max_total_dim: int,
    direction: str,
) -> tuple[SweepCell, ...]:
    return tuple(
        _factor_cell(maps, scales, p, q, l, direction)
        for p in range(max_total_dim)
        for q in range(1, max_total_dim - p + 1)
        for l in range(q + 1)
    )


def verify_pointwise_to_point(
    X: TruncatedBisimplicialSet, max_total_dim: int
) -> PointwiseSweepReport:
    """The report of ``verify_pointwise_fillers(to_point_bimap(X),
    max_total_dim)``, for ``X = tensor(A, B)`` swept on A and B.

    Column p of ``A ⊠ B`` is |A_p| copies of B and its diagonal is
    ``A × B``, whose ids are ``a·|B_m| + b``.  So a horn of column p is a
    pair ``(a, β)``, its diagonal family a pair of families, and its least
    filler the pair of the factors' least fillers: the direct sweep fills the
    degenerated a in A and the horn β in B (:func:`_factor_cell`), the
    transposed sweep the horns of A and the degenerated b in B.  A row's
    ``examined`` is ``Σ_j (a_j·|B_{m_j}| + b_j + 1)`` over its chain of full
    fills, A's share weighed by ``|B_m|`` and B's by ``w + 1``.  Each factor
    is checked Kan to ``max_total_dim`` on a map of its own, once when
    ``B is A``; the sweeps fill on those maps and read the least-id maps the
    check built.  That a pair of answers solves the pair's horn is trusted to
    ``tensor``, the only maker of a bisimplicial ``_factors``, which builds
    X's lines from the factors, as :func:`kancheck.kan._from_factors` trusts
    ``product``.

    When X records no factors, or a factor is not Kan or breaks a law, X
    takes the path of :func:`verify_pointwise_fillers`, so a refusal names
    the diagonal's own ids.
    """
    _require_total_dim(X.bounds, max_total_dim)
    if X._factors is not None:
        A, B = X._factors
        maps = (to_point_map(A),) if B is A else (to_point_map(A), to_point_map(B))
        map_a, map_b = maps[0], maps[-1]
        try:
            # B only when A passes: a failing A already takes the other path
            passed = all(check_kan_fibration(m, max_total_dim).passed for m in maps)
        except RejectedInput:
            passed = False
        if passed:
            return PointwiseSweepReport(
                max_total_dim,
                _factor_sweep((map_a, map_b), (B.counts, None), max_total_dim, "direct"),
                _factor_sweep((map_b, map_a), (None, B.counts), max_total_dim, "transposed"),
            )
    return verify_pointwise_fillers(to_point_bimap(X), max_total_dim)
