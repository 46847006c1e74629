"""Compatible families, horn enumeration, fillers and Kan checks.

All searches scan simplices in ascending id order, so every certificate is
reproducible.  Horn families are enumerated by backtracking with incremental
compatibility pruning, never over the raw product of face choices.  Both the
fill and the enumeration scan a face fiber (the simplices with one given face)
instead of a whole table, and report what a whole-table scan would report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import InternalInvariantError, RejectedInput
from .simplicial import Simplex, SimplicialMap, TruncatedSimplicialSet, to_point_map


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

    def face(self, i: int) -> Simplex:
        return self.faces[self.index_set.index(i)]

    def items(self) -> tuple[tuple[int, Simplex], ...]:
        return tuple(zip(self.index_set, self.faces))

    def with_face(self, i: int, x: Simplex) -> "CompatibleFamily":
        if i in self.index_set:
            raise RejectedInput(f"index {i} already present")
        mapping = dict(self.items())
        mapping[i] = x
        return CompatibleFamily.from_mapping(self.f, self.n, mapping, self.target)


def is_compatible(family: CompatibleFamily) -> bool:
    """Check d_i x_j == d_{j-1} x_i for i < j in I, and f x_i == d_i y."""
    X, Y = family.f.domain, family.f.codomain
    for i, x in family.items():
        if family.f.apply(x) != Y.face(i, family.target):
            return False
    if family.n >= 2:
        pairs = family.items()
        for a, (i, xi) in enumerate(pairs):
            for j, xj in pairs[a + 1:]:
                if X.face(i, xj) != X.face(j - 1, xi):
                    return False
    return True


@dataclass(frozen=True)
class FillCertificate:
    """Outcome of a fill search; a witness is re-verified on construction."""

    family: CompatibleFamily
    witness: Simplex | None
    candidates_examined: int
    failed_subfamily: CompatibleFamily | None = None

    def __post_init__(self) -> None:
        if self.witness is not None:
            X = self.family.f.domain
            if self.witness.dim != self.family.n:
                raise InternalInvariantError("witness has the wrong dimension")
            for i, x in self.family.items():
                if X.face(i, self.witness) != x:
                    raise InternalInvariantError(f"witness face d_{i} mismatch")
            if self.family.f.apply(self.witness) != self.family.target:
                raise InternalInvariantError("witness does not map to the target")

    @property
    def filled(self) -> bool:
        return self.witness is not None


def brute_force_fill(family: CompatibleFamily) -> FillCertificate:
    """The least-id filler of a family, or the proof that none exists.

    Scans the smallest face fiber ``face_fiber(n, i, x_i)`` (the f-fiber of
    the target when I is empty) in ascending id order and tests the other
    faces and f on the raw tables.  ``candidates_examined`` is defined as the
    count a scan of all of X_n would examine: ``witness.idx + 1``, or |X_n|
    when nothing fills.
    """
    if not is_compatible(family):
        raise RejectedInput("family is not compatible; nothing to fill")
    f, n, y = family.f, family.n, family.target.idx
    X = f.domain
    pool = f.fiber(n, y)
    for i, x in family.items():
        by_face = X.face_fiber(n, i, x.idx)
        if len(by_face) < len(pool):
            pool = by_face
    component = f.components[n]
    tests = [(X._faces[n][i], x.idx) for i, x in family.items()]
    for idx in pool:
        if component[idx] == y and all(table[idx] == v for table, v in tests):
            return FillCertificate(family, Simplex(n, idx), idx + 1)
    return FillCertificate(family, None, X.size(n))


def iter_compatible_families(
    f: SimplicialMap, n: int, index_set: tuple[int, ...]
) -> Iterator[CompatibleFamily]:
    """All f-compatible families for a fixed index set, in certificate order.

    Backtracks over the faces in ascending index order.  A candidate for face
    ``t`` is drawn from the fiber of ``f`` over the matching face of the
    target or, for ``t >= 1`` when it is smaller, from the face fiber
    ``face_fiber(n-1, i_0, d_{i_t-1} x_0)`` filtered by ``f``; either way it is
    discarded at the first violated pairwise equation.
    """
    if n < 1 or n > f.domain.bound:
        raise RejectedInput(f"ambient dimension {n} outside bound {f.domain.bound}")
    indices = tuple(sorted(set(index_set)))
    if indices and not 0 <= indices[0] <= indices[-1] <= n:
        raise RejectedInput(f"index set must lie inside [0, {n}]")
    X, Y = f.domain, f.codomain
    component = f.components[n - 1]

    for y in Y.simplices(n):
        required = [Y.face(i, y).idx for i in indices]
        chosen: list[Simplex] = []

        def extend(t: int) -> Iterator[CompatibleFamily]:
            if t == len(indices):
                yield CompatibleFamily(f, n, indices, tuple(chosen), y)
                return
            i_t = indices[t]
            pool = f.fiber(n - 1, required[t])
            if t and n >= 2:
                by_face = X.face_fiber(n - 1, indices[0], X.face(i_t - 1, chosen[0]).idx)
                if len(by_face) < len(pool):
                    pool = [idx for idx in by_face if component[idx] == required[t]]
            for idx in pool:
                x = Simplex(n - 1, idx)
                if n >= 2 and any(
                    X.face(i_s, x) != X.face(i_t - 1, chosen[s])
                    for s, i_s in enumerate(indices[:t])
                ):
                    continue
                chosen.append(x)
                yield from extend(t + 1)
                chosen.pop()

        yield from extend(0)


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


def _fill_cells(
    f: SimplicialMap, kind: str, max_dim: int, cells: list[tuple[int, int]]
) -> FibrationReport:
    """Fill every family of each (n, k) cell in order, stopping at the first
    unfillable one; k is the index left out of [n] (-1 leaves none out)."""
    done: list[HornCellStats] = []
    for n, k in cells:
        indices = tuple(i for i in range(n + 1) if i != k)
        families = filled = 0
        for family in iter_compatible_families(f, n, indices):
            families += 1
            cert = brute_force_fill(family)
            if not cert.filled:
                done.append(HornCellStats(n, k, families, filled))
                return FibrationReport(kind, max_dim, tuple(done), cert)
            filled += 1
        done.append(HornCellStats(n, k, families, filled))
    return FibrationReport(kind, max_dim, tuple(done), None)


def check_kan_fibration(f: SimplicialMap, max_dim: int) -> FibrationReport:
    """Fill every full horn (I = [n] minus one index) for 1 <= n <= max_dim."""
    _require_max_dim(f.domain.bound, max_dim)
    cells = [(n, k) for n in range(1, max_dim + 1) for k in range(n + 1)]
    return _fill_cells(f, "kan", max_dim, cells)


def check_trivial_fibration_to_point(
    X: TruncatedSimplicialSet, max_dim: int
) -> FibrationReport:
    """Fill every compatible full boundary (I = [n]) for 1 <= n <= max_dim."""
    _require_max_dim(X.bound, max_dim)
    if X.size(0) == 0:
        return FibrationReport("trivial", max_dim, (), None, base_point_missing=True)
    cells = [(n, -1) for n in range(1, max_dim + 1)]
    return _fill_cells(to_point_map(X), "trivial", max_dim, cells)


def fill_partial_horn(family: CompatibleFamily) -> FillCertificate:
    """Fill a partial horn (1 <= |I| <= n) by reduction to full-horn fills.

    Double induction: a full horn goes straight to :func:`brute_force_fill`,
    looked up by its module-global name at call time, so replacing that
    attribute reaches every fill.  Otherwise let k be the largest missing
    index; the faces ``d_{k-1} x_i`` (i < k) and ``d_k x_i`` (i > k),
    re-indexed to I' inside [n-1], together with the target ``d_k y`` form a
    family one dimension down.  Filling it recursively produces a candidate
    x_k; the family enlarged by x_k is compatible again, and recursion on the
    larger index set finishes the job.  Both derived compatibilities are
    re-verified and raise if they ever fail, since they hold for every
    compatible input.
    """
    r = len(family.index_set)
    if not 1 <= r <= family.n:
        raise RejectedInput(f"partial horn needs 1 <= |I| <= n, got |I|={r}, n={family.n}")
    if not is_compatible(family):
        raise RejectedInput("family is not compatible; nothing to fill")
    if r == family.n:
        return brute_force_fill(family)

    X, Y = family.f.domain, family.f.codomain
    n = family.n
    k = max(i for i in range(n + 1) if i not in family.index_set)
    sub_faces = {}
    for i, x in family.items():
        if i < k:
            sub_faces[i] = X.face(k - 1, x)
        else:
            sub_faces[i - 1] = X.face(k, x)
    subfamily = CompatibleFamily.from_mapping(
        family.f, n - 1, sub_faces, Y.face(k, family.target)
    )
    if not is_compatible(subfamily):
        raise InternalInvariantError("derived family one dimension down is incompatible")

    sub_cert = fill_partial_horn(subfamily)
    if not sub_cert.filled:
        return FillCertificate(
            family, None, sub_cert.candidates_examined,
            failed_subfamily=sub_cert.failed_subfamily or subfamily,
        )
    enlarged = family.with_face(k, sub_cert.witness)
    if not is_compatible(enlarged):
        raise InternalInvariantError("family enlarged by the found face is incompatible")

    cert = fill_partial_horn(enlarged)
    examined = sub_cert.candidates_examined + cert.candidates_examined
    if not cert.filled:
        return FillCertificate(
            family, None, examined,
            failed_subfamily=cert.failed_subfamily or enlarged,
        )
    return FillCertificate(family, cert.witness, examined)
