"""Compatible families, horn enumeration, fillers and Kan checks.

All searches take simplices in ascending id order, so every certificate is
reproducible.  Both the fill and the enumeration are lookups: X_m is bucketed,
once per map, dimension m and face set J, by the key ``(f w, d_j w for j in
J)`` (:meth:`SimplicialMap.index`), and a bucket holds exactly the simplices
with those faces over that image, ascending.  A fill is one lookup under the
horn's key and takes the bucket's least id, which is the filler a scan of the
whole table would find first.  Horn families are enumerated by backtracking,
face by face, each face drawn from the bucket that already satisfies every
equation with the faces chosen before it, never from the raw product of face
choices.  Every family found is still re-checked on the tables, and so is
every filler.

One engine searches, on raw table ids: ``_families`` enumerates families,
``_filler`` fills a full horn and ``_fill_partial`` a partial one.
``iter_compatible_families``, ``brute_force_fill`` and ``fill_partial_horn``
wrap it in objects.  The Kan and trivial-fibration sweeps count on ids and
build objects only for the first family that does not fill; the pointwise
sweep builds none, since a partial diagonal horn that does not fill there is
a broken invariant.  So ``_fill_partial`` returns only a filler and the
candidates it examined, and keeps no record of where a fill stopped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .errors import InternalInvariantError, RejectedInput
from .simplicial import (
    Simplex,
    SimplicialMap,
    TruncatedSimplicialSet,
    pack_key,
    to_point_map,
)


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


def _compatible(
    f: SimplicialMap, n: int, indices: Sequence[int], faces: Sequence[int], y: int
) -> bool:
    """The face equations of a family on raw ids: f x_i == d_i y, and
    d_i x_j == d_{j-1} x_i for i < j in I."""
    component, target_faces = f.components[n - 1], f.codomain._faces[n]
    for i, x in zip(indices, faces):
        if component[x] != target_faces[i][y]:
            return False
    if n >= 2:
        tables = f.domain._faces[n - 1]
        for a, (i, xi) in enumerate(zip(indices, faces)):
            for j, xj in zip(indices[a + 1:], faces[a + 1:]):
                if tables[i][xj] != tables[j - 1][xi]:
                    return False
    return True


def is_compatible(family: CompatibleFamily) -> bool:
    """Check d_i x_j == d_{j-1} x_i for i < j in I, and f x_i == d_i y."""
    return _compatible(family.f, family.n, family.index_set, family.ids, family.target.idx)


def _check_witness(
    f: SimplicialMap, n: int, indices: Sequence[int], faces: Sequence[int], y: int, w: int
) -> None:
    """Raise unless the n-simplex w has the family's faces and maps to y."""
    tables = f.domain._faces[n]
    for i, x in zip(indices, faces):
        if tables[i][w] != x:
            raise InternalInvariantError(f"witness face d_{i} mismatch")
    if f.components[n][w] != y:
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
            _check_witness(
                fam.f, fam.n, fam.index_set, fam.ids, fam.target.idx, self.witness.idx
            )

    @property
    def filled(self) -> bool:
        return self.witness is not None


def _filler(
    f: SimplicialMap, n: int, indices: tuple[int, ...], faces: Sequence[int], y: int
) -> int | None:
    """The least id of an n-simplex with faces x_i at I that maps to y, or None.

    One lookup in the index of X_n by ``(f w, d_i w for i in I)``, under the
    key ``(y, x_i for i in I)``: the bucket holds exactly the fillers,
    ascending, so its first id is the first filler a scan of X_n meets.
    """
    bucket = f.index(n, indices).get(pack_key(f.domain.counts[n - 1], y, faces))
    return bucket[0] if bucket else None


def brute_force_fill(family: CompatibleFamily) -> FillCertificate:
    """The least-id filler of a family, or the proof that none exists.

    ``candidates_examined`` is defined as the count a scan of all of X_n in
    ascending id order would examine: ``witness.idx + 1``, or |X_n| when
    nothing fills.  It is a definition, not the work done: the search itself
    is one index lookup (see :func:`_filler`).
    """
    if not is_compatible(family):
        raise RejectedInput("family is not compatible; nothing to fill")
    f, n = family.f, family.n
    w = _filler(f, n, family.index_set, family.ids, family.target.idx)
    if w is None:
        return FillCertificate(family, None, f.domain.size(n))
    return FillCertificate(family, Simplex(n, w), w + 1)


def _families(
    f: SimplicialMap, n: int, indices: tuple[int, ...]
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every f-compatible family over I as raw ids ``(y, faces)``, in
    certificate order: targets ascending, then faces by backtracking.

    Face ``t`` is drawn, in ascending id order, from the index of X_{n-1} by
    ``(f x, d_{i_s} x for s < t)`` under the key ``(d_{i_t} y, d_{i_t - 1} x_s
    for s < t)``: its bucket holds exactly the candidates that satisfy
    ``f x_t == d_{i_t} y`` and every pairwise equation with the faces already
    chosen, so no candidate is tested.  At n = 1 there are no pairwise
    equations and every face is drawn from an f-fiber.
    """
    X, Y = f.domain, f.codomain
    if not indices:
        for y in range(Y.counts[n]):
            yield y, ()
        return
    target_faces = [Y._faces[n][i] for i in indices]
    if n >= 2:
        radix = X.counts[n - 2]
        pools = [f.index(n - 1, indices[:t]) for t in range(len(indices))]
        # d_{i_t - 1}: the chosen x_s's digits of face t's key (read for t >= 1)
        shifted = [X._faces[n - 1][i - 1] for i in indices]
    else:
        radix, pools, shifted = 0, [f.index(0, ())] * len(indices), []
    chosen = [0] * len(indices)
    last = len(indices) - 1

    def extend(t: int, required: list[int]) -> Iterator[tuple[int, ...]]:
        key = required[t]
        if shifted:  # pack_key, inline on the hot path
            table = shifted[t]
            for x in chosen[:t]:
                key = key * radix + table[x]
        for x in pools[t].get(key, ()):
            chosen[t] = x
            if t == last:
                yield tuple(chosen)
            else:
                yield from extend(t + 1, required)

    for y in range(Y.counts[n]):
        for faces in extend(0, [table[y] for table in target_faces]):
            yield y, faces


def iter_compatible_families(
    f: SimplicialMap, n: int, index_set: tuple[int, ...]
) -> Iterator[CompatibleFamily]:
    """All f-compatible families for a fixed index set, in certificate order.

    Builds one :class:`CompatibleFamily` for each family the id engine
    ``_families`` enumerates.
    """
    if n < 1 or n > f.domain.bound:
        raise RejectedInput(f"ambient dimension {n} outside bound {f.domain.bound}")
    indices = tuple(sorted(set(index_set)))
    if indices and not 0 <= indices[0] <= indices[-1] <= n:
        raise RejectedInput(f"index set must lie inside [0, {n}]")
    for y, faces in _families(f, n, indices):
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


def _fill_cells(
    f: SimplicialMap, kind: str, max_dim: int, cells: list[tuple[int, int]]
) -> FibrationReport:
    """Fill every family of each (n, k) cell in order, stopping at the first
    unfillable one; k is the index left out of [n] (-1 leaves none out).

    Counts on raw ids: each family's equations and each witness are checked on
    the tables, and objects are built only for the first family that does not
    fill, whose certificate :func:`brute_force_fill` makes.
    """
    done: list[HornCellStats] = []
    for n, k in cells:
        indices = tuple(i for i in range(n + 1) if i != k)
        families = filled = 0
        for y, faces in _families(f, n, indices):
            families += 1
            if not _compatible(f, n, indices, faces, y):
                raise InternalInvariantError("enumerated family is not compatible")
            w = _filler(f, n, indices, faces, y)
            if w is None:
                family = CompatibleFamily.of_ids(f, n, indices, faces, y)
                done.append(HornCellStats(n, k, families, filled))
                return FibrationReport(kind, max_dim, tuple(done), brute_force_fill(family))
            _check_witness(f, n, indices, faces, y, w)
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


def _fill_partial(
    f: SimplicialMap, n: int, indices: tuple[int, ...], faces: tuple[int, ...], y: int
) -> tuple[int | None, int]:
    """Fill a compatible partial horn (1 <= |I| <= n) on raw ids, by reduction
    to full-horn fills.

    Returns ``(w, examined)``: the filler's id or None, and the candidates its
    full-horn fills examined (as :func:`brute_force_fill` counts them).

    Double induction: a full horn goes to :func:`_filler` and its filler is
    re-checked.  Otherwise let k be the largest missing index; the faces
    ``d_{k-1} x_i`` (i < k) and ``d_k x_i`` (i > k), re-indexed to I' inside
    [n-1], together with the target ``d_k y`` form a family one dimension
    down.  Filling it recursively produces a candidate x_k; the family
    enlarged by x_k is compatible again, and recursion on the larger index set
    finishes the job.  Both derived compatibilities are re-verified and raise
    if they ever fail, since they hold for every compatible input.
    """
    if len(indices) == n:
        w = _filler(f, n, indices, faces, y)
        if w is None:
            return None, f.domain.counts[n]
        _check_witness(f, n, indices, faces, y, w)
        return w, w + 1

    k = max(i for i in range(n + 1) if i not in indices)  # k >= 1: two are missing
    tables = f.domain._faces[n - 1]
    sub_indices = tuple(i if i < k else i - 1 for i in indices)
    sub_faces = tuple(tables[k - 1 if i < k else k][x] for i, x in zip(indices, faces))
    sub_y = f.codomain._faces[n][k][y]
    if not _compatible(f, n - 1, sub_indices, sub_faces, sub_y):
        raise InternalInvariantError("derived family one dimension down is incompatible")

    x_k, examined = _fill_partial(f, n - 1, sub_indices, sub_faces, sub_y)
    if x_k is None:
        return None, examined
    at = sum(1 for i in indices if i < k)
    enlarged = indices[:at] + (k,) + indices[at:]
    enlarged_faces = faces[:at] + (x_k,) + faces[at:]
    if not _compatible(f, n, enlarged, enlarged_faces, y):
        raise InternalInvariantError("family enlarged by the found face is incompatible")

    w, more = _fill_partial(f, n, enlarged, enlarged_faces, y)
    return w, examined + more


def fill_partial_horn(family: CompatibleFamily) -> FillCertificate:
    """Fill a partial horn (1 <= |I| <= n) by reduction to full-horn fills.

    Wraps the id engine :func:`_fill_partial` in a :class:`FillCertificate`.
    A full horn gets the certificate :func:`brute_force_fill` would give it.
    """
    r = len(family.index_set)
    if not 1 <= r <= family.n:
        raise RejectedInput(f"partial horn needs 1 <= |I| <= n, got |I|={r}, n={family.n}")
    if not is_compatible(family):
        raise RejectedInput("family is not compatible; nothing to fill")
    f, n = family.f, family.n
    w, examined = _fill_partial(f, n, family.index_set, family.ids, family.target.idx)
    return FillCertificate(family, None if w is None else Simplex(n, w), examined)
