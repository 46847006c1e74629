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
at run time and raises ``InternalInvariantError`` if it ever fails.

Each step runs on raw table ids: ``_diagonal_family`` degenerates,
``kan._fill_partial`` fills and ``_answer`` cuts down; no object is built.
Both sweeps, direct and transposed, fill in the one diagonal map the Kan
check passed: horizontal and vertical operators commute, so the diagonal of
the transpose is the same map.  A partial fill ends in full-horn fills of
that map, so they look up the indexes its Kan check built.

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
    _check_witness,
    _compatible,
    _families,
    _fill_partial,
    check_kan_fibration,
)
from .simplicial import SimplicialMap

# a family on raw ids: (n, indices, faces, y)
IdFamily = tuple[int, tuple[int, ...], tuple[int, ...], int]


def _repeat(tables: Sequence, i: int, times: int, level: int, x: int, step: int) -> int:
    """Apply operator i ``times`` times to the id x, reading ``tables[level][i]``
    and moving ``step`` levels each time (+1 for degeneracies, -1 for faces)."""
    for m in range(level, level + step * times, step):
        x = tables[m][i][x]
    return x


def _degenerate(X: TruncatedBisimplicialSet, p: int, m: int, s: int, x: int) -> int:
    """``(s_0^h)^s (s_p^h)^(m-p-s) (s_s^v)^p x`` for x at level (p, m-p): a
    bisimplex at (m, m).  Powers apply right to left."""
    x = _repeat(X.columns[p]._degens, s, p, m - p, x, 1)
    row = X.rows[m]._degens
    x = _repeat(row, p, m - p - s, p, x, 1)
    return _repeat(row, 0, s, m - s, x, 1)


def _diagonal_family(
    f: BisimplicialMap, diag_f: SimplicialMap, p: int, q: int, l: int,
    faces: Sequence[int], y: int,
) -> IdFamily:
    """The diagonal family of a horn of column p, on raw ids, verified
    compatible for ``diag_f``.

    For the horn's dimension q and missing index l, face i maps to
      (s_0^h)^{l-1} (s_p^h)^{q-l} (s_{l-1}^v)^p x_i   when i < l, kept at index i,
      (s_0^h)^{l}   (s_p^h)^{q-l-1} (s_l^v)^p   x_i   when i > l, placed at index p+i,
    and the target to (s_0^h)^l (s_p^h)^{q-l} (s_l^v)^p y.
    """
    n = p + q
    indices = tuple(range(l)) + tuple(range(p + l + 1, n + 1))
    lifted = tuple(
        _degenerate(f.domain, p, n - 1, l - 1 if t < l else l, x) for t, x in enumerate(faces)
    )
    target = _degenerate(f.codomain, p, n, l, y)
    if not _compatible(diag_f, n, indices, lifted, target):
        raise InternalInvariantError("built diagonal family is not compatible")
    return n, indices, lifted, target


def _answer(
    f: BisimplicialMap, p: int, q: int, l: int,
    indices: Sequence[int], faces: Sequence[int], y: int, w: int,
) -> int:
    """Cut the diagonal filler w down by ``(d_{p+1}^h)^{q-l} (d_0^h)^l (d_l^v)^p``
    to level (p, q), on raw ids, and check that the answer has every requested
    face ``d_i^v x == x_i`` (i != l, the outer ones included) and maps to y."""
    X, n = f.domain, p + q
    x = _repeat(X.columns[n]._faces, l, p, n, w, -1)
    row = X.rows[q]._faces
    x = _repeat(row, 0, l, n, x, -1)
    x = _repeat(row, p + 1, q - l, n - l, x, -1)
    _check_witness(f.column_maps[p], q, indices, faces, y, x)
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
    """Fill every horn of each (p, q, l) cell in order, on raw ids.

    Each horn's equations are re-checked on the tables.  ``diag_f`` passed
    the Kan check up to ``max_total_dim``, so every diagonal family fills; one
    that does not is a broken invariant, named by its cell and direction.
    """
    cells: list[SweepCell] = []
    for p in range(max_total_dim):
        col_f = column_map(f, p)
        for q in range(1, max_total_dim - p + 1):
            for missing in range(q + 1):
                indices = tuple(i for i in range(q + 1) if i != missing)
                problems = filled = max_search = 0
                for y, faces in _families(col_f, q, indices):
                    problems += 1
                    if not _compatible(col_f, q, indices, faces, y):
                        raise InternalInvariantError("enumerated horn is not compatible")
                    family = _diagonal_family(f, diag_f, p, q, missing, faces, y)
                    w, examined = _fill_partial(diag_f, *family)
                    if w is None:
                        raise InternalInvariantError(
                            f"{'transposed' if transposed else 'direct'} horn at "
                            f"(p, q, missing) = ({p}, {q}, {missing}) did not fill "
                            "through the Kan diagonal"
                        )
                    max_search = max(max_search, examined)
                    _answer(f, p, q, missing, indices, faces, y, w)
                    filled += 1
                cells.append(SweepCell(p, q, missing, problems, filled, max_search))
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
