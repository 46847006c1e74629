"""Pointwise horn fillers obtained from a diagonal partial-horn filler.

Given a bisimplicial map f whose diagonal is a Kan fibration, every horn of a
column map ``column_map(f, p)`` can be filled.  A horn is a
:class:`~kancheck.kan.CompatibleFamily` of that column map whose index set is
[q] minus one index l; its faces and target carry the ids of the bisimplices
at levels (p, q-1) and (p, q).  The construction degenerates
the given faces up to the diagonal, fills one partial diagonal horn there, and
carves the answer back down with faces.  Every intermediate step the argument
relies on (dimension bookkeeping, compatibility of the built diagonal family,
and the requested face/target relations of the answer) is re-verified at run
time and raises ``InternalInvariantError`` if it ever fails.

Index bookkeeping, for a horn in column p, vertical dimension q >= 1 and
missing index l: the diagonal family lives at dimension n = p + q over the
index set ``I = {i : i < l} u {p + i : l < i <= q}``, which has exactly q
elements, so the partial-horn filler applies whenever q >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .bisimplicial import (
    BiSimplex,
    BisimplicialMap,
    column_map,
    diagonal_map,
    transpose_map,
)
from .errors import InternalInvariantError, RejectedInput, TruncationError
from .kan import (
    CompatibleFamily,
    FillCertificate,
    check_kan_fibration,
    fill_partial_horn,
    is_compatible,
    iter_compatible_families,
)
from .simplicial import Simplex, SimplicialMap


def missing_index(horn: CompatibleFamily) -> int:
    """The index l left out of a horn's index set [q] minus {l}."""
    return next(i for i in range(horn.n + 1) if i not in horn.index_set)


def _repeat(op: Callable[[int, BiSimplex], BiSimplex], index: int, times: int, x: BiSimplex) -> BiSimplex:
    for _ in range(times):
        x = op(index, x)
    return x


def _expect_level(x: BiSimplex, p: int, q: int, what: str) -> None:
    if (x.p, x.q) != (p, q):
        raise InternalInvariantError(f"{what} landed at ({x.p},{x.q}), expected ({p},{q})")


def build_diagonal_family(
    f: BisimplicialMap, p: int, horn: CompatibleFamily, diag_f: SimplicialMap | None = None
) -> CompatibleFamily:
    """Degenerate a horn of ``column_map(f, p)`` into a diagonal compatible family.

    For the horn's dimension q and missing index l, face i maps to
      (s_0^h)^{l-1} (s_p^h)^{q-l}   (s_{l-1}^v)^p x_i   when i < l, kept at index i,
      (s_0^h)^{l}   (s_p^h)^{q-l-1} (s_l^v)^p     x_i   when i > l, placed at index p+i,
    and the target to (s_0^h)^l (s_p^h)^{q-l} (s_l^v)^p y.  Powers apply right
    to left as repeated single-index degeneracies.  The family is verified
    compatible for the diagonal map before it is returned.
    """
    if horn.f is not column_map(f, p):
        raise RejectedInput(f"the horn is not a horn of column {p}")
    if len(horn.index_set) != horn.n:
        raise RejectedInput(f"a pointwise horn leaves out exactly one index of [{horn.n}]")
    X, Y = f.domain, f.codomain
    q, l = horn.n, missing_index(horn)
    n = p + q
    if X.bounds[0] < n or X.bounds[1] < n or Y.bounds[0] < n or Y.bounds[1] < n:
        raise TruncationError(
            f"bounds {X.bounds} cannot hold the dimension-({n},{n}) diagonal family"
        )
    if not is_compatible(horn):
        raise RejectedInput("horn faces are not compatible with the target")
    if diag_f is None:
        diag_f = diagonal_map(f)

    faces: dict[int, Simplex] = {}
    for i, face in horn.items():
        x = BiSimplex(p, q - 1, face.idx)
        if i < l:
            lifted = _repeat(X.v_degeneracy, l - 1, p, x)
            lifted = _repeat(X.h_degeneracy, p, q - l, lifted)
            lifted = _repeat(X.h_degeneracy, 0, l - 1, lifted)
            _expect_level(lifted, n - 1, n - 1, f"degenerated face {i}")
            faces[i] = Simplex(n - 1, lifted.idx)
        else:
            lifted = _repeat(X.v_degeneracy, l, p, x)
            lifted = _repeat(X.h_degeneracy, p, q - l - 1, lifted)
            lifted = _repeat(X.h_degeneracy, 0, l, lifted)
            _expect_level(lifted, n - 1, n - 1, f"degenerated face {i}")
            faces[p + i] = Simplex(n - 1, lifted.idx)

    lifted_target = _repeat(Y.v_degeneracy, l, p, BiSimplex(p, q, horn.target.idx))
    lifted_target = _repeat(Y.h_degeneracy, p, q - l, lifted_target)
    lifted_target = _repeat(Y.h_degeneracy, 0, l, lifted_target)
    _expect_level(lifted_target, n, n, "degenerated target")

    expected_indices = tuple(sorted(list(range(l)) + [p + i for i in range(l + 1, q + 1)]))
    family = CompatibleFamily.from_mapping(
        diag_f, n, faces, Simplex(n, lifted_target.idx)
    )
    if family.index_set != expected_indices:
        raise InternalInvariantError("diagonal index set does not match the construction")
    if not is_compatible(family):
        raise InternalInvariantError("built diagonal family is not compatible")
    return family


@dataclass(frozen=True)
class DiagonalLift:
    """The full trace of one pointwise fill through the diagonal: the horn of
    column p, the diagonal family built from it, its fill and the answer."""

    p: int
    horn: CompatibleFamily
    diagonal_family: CompatibleFamily
    certificate: FillCertificate
    answer: BiSimplex | None

    @property
    def filled(self) -> bool:
        return self.answer is not None


def diagonal_lift(
    f: BisimplicialMap, p: int, horn: CompatibleFamily, diag_f: SimplicialMap | None = None
) -> DiagonalLift:
    """Fill a horn of ``column_map(f, p)`` through the diagonal, with verification.

    The filled diagonal simplex w is cut back down by
    ``x = (d_{p+1}^h)^{q-l} (d_0^h)^l (d_l^v)^p w`` and the answer is checked
    to satisfy ``d_i^v x == x_i`` for every i != l (including the outer ones)
    and ``f x == y`` exactly.
    """
    family = build_diagonal_family(f, p, horn, diag_f)
    cert = fill_partial_horn(family)
    if not cert.filled:
        return DiagonalLift(p, horn, family, cert, None)

    X = f.domain
    q, l = horn.n, missing_index(horn)
    w = BiSimplex(p + q, p + q, cert.witness.idx)
    x = _repeat(X.v_face, l, p, w)
    x = _repeat(X.h_face, 0, l, x)
    x = _repeat(X.h_face, p + 1, q - l, x)
    _expect_level(x, p, q, "answer")
    in_column = Simplex(q, x.idx)
    for i, xi in horn.items():
        if horn.f.domain.face(i, in_column) != xi:
            raise InternalInvariantError(f"answer violates the requested face at {i}")
    if horn.f.apply(in_column) != horn.target:
        raise InternalInvariantError("answer does not map to the requested target")
    return DiagonalLift(p, horn, family, cert, x)


@dataclass(frozen=True)
class SweepCell:
    p: int
    q: int
    missing: int
    problems: int
    filled: int
    max_search: int


@dataclass(frozen=True)
class SweepFailure:
    transposed: bool
    lift: DiagonalLift


@dataclass(frozen=True)
class PointwiseSweepReport:
    max_total_dim: int
    direct_cells: tuple[SweepCell, ...]
    transposed_cells: tuple[SweepCell, ...]
    failure: SweepFailure | None

    @property
    def passed(self) -> bool:
        return self.failure is None

    @property
    def problems_checked(self) -> int:
        return sum(c.problems for c in self.direct_cells + self.transposed_cells)

    @property
    def families_verified_compatible(self) -> int:
        # every attempted fill builds exactly one compatibility-checked family
        return self.problems_checked


def _sweep(
    f: BisimplicialMap,
    max_total_dim: int,
    transposed: bool,
) -> tuple[tuple[SweepCell, ...], SweepFailure | None]:
    diag_f = diagonal_map(f)
    cells: list[SweepCell] = []
    for p in range(max_total_dim):
        col_f = column_map(f, p)
        for q in range(1, max_total_dim - p + 1):
            for missing in range(q + 1):
                indices = tuple(i for i in range(q + 1) if i != missing)
                problems = filled = max_search = 0
                for horn in iter_compatible_families(col_f, q, indices):
                    problems += 1
                    lift = diagonal_lift(f, p, horn, diag_f)
                    max_search = max(max_search, lift.certificate.candidates_examined)
                    if not lift.filled:
                        cells.append(SweepCell(p, q, missing, problems, filled, max_search))
                        return tuple(cells), SweepFailure(transposed, lift)
                    filled += 1
                cells.append(SweepCell(p, q, missing, problems, filled, max_search))
    return tuple(cells), None


def verify_pointwise_fillers(f: BisimplicialMap, max_total_dim: int) -> PointwiseSweepReport:
    """Certify that a diagonal Kan fibration fills every pointwise horn.

    First the diagonal map is required to pass the brute-force Kan check up to
    ``max_total_dim`` (rejected input otherwise, naming the failing horn).
    Then every pointwise horn problem with p + q <= max_total_dim is solved
    through the diagonal, and the whole sweep is repeated on the transpose,
    covering the row direction by the same symmetry.
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
    direct, failure = _sweep(f, max_total_dim, transposed=False)
    if failure is not None:
        return PointwiseSweepReport(max_total_dim, direct, (), failure)
    transposed, failure = _sweep(transpose_map(f), max_total_dim, transposed=True)
    return PointwiseSweepReport(max_total_dim, direct, transposed, failure)
