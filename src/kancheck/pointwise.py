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
full-horn fills of that map, so they look up the least-id maps its Kan check
built.  The transposed sweep enumerates on f's own row maps
(:func:`kancheck.bisimplicial.transpose_map` shares them), so their indexes
are kept with f, as the column maps' are.

The Kan check of the diagonal searches one horn family per orbit when the
diagonal carries a group action and maps to a point (see
:func:`kancheck.kan._fill_cells`): the diagonal of ``tensor(A, B)`` carries
the product of the factors' actions, as ``product(A, B)`` does, so the
precondition of ``pointwise`` on an eg-tensor searches one family in
|H_0| (4 for Z2, 36 for S3), and fills each from the diagonal's full
least-id map, which the sweeps read next.  Its report, and the message
when it fails, are the full search's.  The sweeps themselves enumerate
every horn, since ``max_search`` depends on ids.

Index bookkeeping, for a horn in column p, vertical dimension q >= 1 and
missing index l: the diagonal family lives at dimension n = p + q over the
index set ``I = {i : i < l} u {p + i : l < i <= q}``, which has exactly q
elements, so the partial-horn filler applies whenever q >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bisimplicial import (
    BisimplicialMap,
    TruncatedBisimplicialSet,
    column_map,
    diagonal_map,
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
from .simplicial import SimplicialMap, gather, require_level_laws


def _repeat(
    tables: Sequence, i: int, times: int, level: int, x: list[int], step: int
) -> list[int]:
    """Apply operator i ``times`` times to the id column x, reading
    ``tables[level][i]`` and moving ``step`` levels each time (+1 for
    degeneracies, -1 for faces)."""
    for m in range(level, level + step * times, step):
        x = gather(tables[m][i], x)
    return x


def _degenerate(
    X: TruncatedBisimplicialSet, p: int, m: int, s: int, x: list[int]
) -> list[int]:
    """``(s_0^h)^s (s_p^h)^(m-p-s) (s_s^v)^p x`` for each x of a column at level
    (p, m-p): bisimplices at (m, m).  Powers apply right to left."""
    x = _repeat(X.columns[p]._degens, s, p, m - p, x, 1)
    row = X.rows[m]._degens
    x = _repeat(row, p, m - p - s, p, x, 1)
    return _repeat(row, 0, s, m - s, x, 1)


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
    row = X.rows[q]._faces
    x = _repeat(row, 0, l, n, x, -1)
    x = _repeat(row, p + 1, q - l, n - l, x, -1)
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


def verify_pointwise_fillers(f: BisimplicialMap, max_total_dim: int) -> PointwiseSweepReport:
    """Certify that a diagonal Kan fibration fills every pointwise horn.

    First the diagonal map is required to pass the brute-force Kan check up to
    ``max_total_dim`` (rejected input otherwise, naming the failing horn).
    Then every pointwise horn problem with p + q <= max_total_dim is solved
    through that diagonal, and the whole sweep is repeated on the transpose,
    whose diagonal is the same map, covering the row direction by the same
    symmetry.
    """
    if max_total_dim < 1:
        raise RejectedInput("max_total_dim must be at least 1")
    P, Q = f.domain.bounds
    if min(P, Q) < max_total_dim:
        raise TruncationError(
            f"bounds {f.domain.bounds} cannot hold diagonal families up to {max_total_dim}"
        )
    diag_f = diagonal_map(f)
    kan_report = check_kan_fibration(diag_f, max_total_dim)
    if not kan_report.passed:
        fail = kan_report.failure
        raise RejectedInput(
            "the diagonal map is not a Kan fibration up to dimension "
            f"{max_total_dim}: unfillable horn at n={fail.family.n}, "
            f"I={fail.family.index_set}, faces="
            f"{tuple(x.idx for x in fail.family.faces)}"
        )
    return PointwiseSweepReport(
        max_total_dim,
        _sweep(f, diag_f, max_total_dim, transposed=False),
        _sweep(transpose_map(f), diag_f, max_total_dim, transposed=True),
    )
